import math
import warnings

import numpy as np
import pytest

import herglotz as hg
from herglotz import errors, expr
from herglotz.bundles import BUNDLE_NAMES
from herglotz.integrate import (
    VariationDirection,
    first_variation,
    integrate_z,
    integration_stops,
)
from herglotz.noether import group_variation
from herglotz.solver import variational_gradient
from herglotz.trajectory import PiecewiseTrajectory, SampledTrajectory, build_grid

from conftest import build_bundle, build_paper, unit_direction, wavy_sampled, whole_tree_z

E = math.e


class TestIntegrateZ:
    def test_reference_values_on_extremal(self):
        problem, traj, _, _ = build_paper(400)
        zp = integrate_z(problem, traj)
        assert abs(zp.z_b - (E * E - E)) < 1e-9
        nodes = problem.grid.main_nodes
        i1 = int(np.argmin(np.abs(nodes - 1.0)))
        assert abs(zp.z[i1] - (E - 1.0)) < 1e-9

    def test_zero_lagrangian_keeps_z_constant(self):
        g = build_grid(0.0, 2.0, 1.0, 16)
        problem = hg.HerglotzProblem(grid=g, gamma=0.7, beta=1.0,
                                     history="-t", lagrangian="0")
        traj = hg.seed_trajectory(problem, "linear")
        zp = integrate_z(problem, traj)
        assert np.all(zp.z == 0.7)

    def test_classical_quadratic_along_line(self):
        g = build_grid(0.0, 1.0, 0.0, 50)
        problem = hg.HerglotzProblem(grid=g, gamma=0.0, beta=1.0,
                                     history="0", lagrangian="dx^2")
        traj = PiecewiseTrajectory(g, [(0.0, 1.0, "t")])
        zp = integrate_z(problem, traj)
        assert abs(zp.z_b - 1.0) < 1e-10

    def test_initial_values_exact(self):
        problem, traj, _, _ = build_paper(40)
        zp = integrate_z(problem, traj)
        assert zp.z[0] == problem.gamma
        assert zp.lam[0] == 1.0
        assert np.all(zp.lam > 0.0)

    def test_domain_error_propagates(self):
        g = build_grid(0.0, 1.0, 0.0, 10)
        problem = hg.HerglotzProblem(grid=g, gamma=0.0, beta=-1.0,
                                     history="0", lagrangian="log(x)")
        traj = PiecewiseTrajectory(g, [(0.0, 1.0, "-t")])
        with pytest.raises(errors.DomainError):
            integrate_z(problem, traj)

    def test_non_finite_detected(self):
        g = build_grid(0.0, 1.0, 0.0, 10)
        problem = hg.HerglotzProblem(grid=g, gamma=0.0, beta=1.0,
                                     history="0", lagrangian="exp(exp(exp(5 + x)))")
        traj = PiecewiseTrajectory(g, [(0.0, 1.0, "t")])
        with pytest.raises(errors.NonFinite):
            integrate_z(problem, traj)

    @pytest.mark.parametrize("text", [
        "exp(exp(exp(5 + x))) + z",
        "1e300*(2 + x)*1e300 + z",
        "(exp(exp(exp(5 + x))) - exp(exp(exp(5 + x))))*z",
    ])
    def test_hoisted_overflow_is_silent_and_non_finite(self, text):
        g = build_grid(0.0, 1.0, 0.0, 10)
        problem = hg.HerglotzProblem(grid=g, gamma=1.0, beta=1.0,
                                     history="0", lagrangian=text)
        traj = PiecewiseTrajectory(g, [(0.0, 1.0, "t")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.NonFinite):
                integrate_z(problem, traj)

    def test_blow_up_inside_a_step_is_non_finite(self):
        # z' = z^2 from z(0) = 1 blows up at t = 1, between two stages
        g = build_grid(0.0, 2.0, 0.0, 100)
        problem = hg.HerglotzProblem(grid=g, gamma=1.0, beta=1.0,
                                     history="0", lagrangian="z^2")
        traj = PiecewiseTrajectory(g, [(0.0, 2.0, "t")])
        with pytest.raises(errors.NonFinite):
            integrate_z(problem, traj)

    @pytest.mark.parametrize("name", BUNDLE_NAMES)
    @pytest.mark.parametrize("n", [100, None])
    def test_bitwise_equal_to_the_whole_tree_stages(self, name, n):
        problem, traj, _, _ = build_bundle(name, n=n)
        zp = integrate_z(problem, traj)
        z, lam = whole_tree_z(problem, traj)
        assert zp.z.tobytes() == z.tobytes()
        assert zp.lam.tobytes() == lam.tobytes()

    def test_stages_walk_only_the_z_path(self, monkeypatch):
        # paper-s4, L = dxtau^2 + z: dxtau^2 is evaluated once over the
        # samples (its 3 nodes), and each stage visits +, the hoisted leaf and
        # z: 3 nodes, where the whole tree has 5. A sampled trajectory reads
        # no expression, so every visit outside the stages is the hoisting
        problem, _, _, _ = build_paper(100)
        traj = wavy_sampled(problem)
        visits = {"stage": 0, "samples": 0}
        original = expr._dual

        def counted(e, b, seed):
            visits["stage" if expr.SAMPLE in b else "samples"] += 1
            return original(e, b, seed)

        monkeypatch.setattr(expr, "_dual", counted)
        integrate_z(problem, traj)
        k = len(integration_stops(problem, traj)[0]) - 1
        assert visits == {"stage": 3 * 4 * k, "samples": 3}

    def test_csv_layout(self):
        problem, traj, _, _ = build_paper(8)
        zp = integrate_z(problem, traj)
        lines = zp.csv().splitlines()
        assert lines[0] == "t,z,lambda"
        assert len(lines) == len(problem.grid.main_nodes) + 1


class TestLambda:
    def test_reference_integrating_factor(self):
        problem, traj, _, _ = build_paper(400)
        zp = integrate_z(problem, traj)
        assert abs(zp.lambda_at(1.0) - math.exp(-1.0)) < 1e-8

    def test_z_free_lagrangian_gives_identity_factor(self):
        g = build_grid(0.0, 1.0, 0.0, 20)
        problem = hg.HerglotzProblem(grid=g, gamma=0.0, beta=1.0,
                                     history="0", lagrangian="dx^2 + x")
        traj = PiecewiseTrajectory(g, [(0.0, 1.0, "t")])
        zp = integrate_z(problem, traj)
        assert np.all(zp.lam == 1.0)

    def test_linear_z_dependence_closed_form(self):
        g = build_grid(0.5, 1.5, 0.0, 64)
        problem = hg.HerglotzProblem(grid=g, gamma=0.2, beta=1.0,
                                     history="0.5", lagrangian="2*z")
        traj = SampledTrajectory(g, np.linspace(0.5, 1.0, len(g.nodes)))
        zp = integrate_z(problem, traj)
        expected = np.exp(-2.0 * (g.main_nodes - g.a))
        assert np.max(np.abs(zp.lam - expected)) < 1e-8

    def test_out_of_domain(self):
        problem, traj, _, _ = build_paper(8)
        zp = integrate_z(problem, traj)
        with pytest.raises(errors.OutOfDomain):
            zp.lambda_at(-0.5)

    def test_node_exactness(self):
        problem, traj, _, _ = build_paper(8)
        zp = integrate_z(problem, traj)
        nodes = problem.grid.main_nodes
        assert zp.z_at(nodes[3]) == zp.z[3]
        assert zp.lambda_at(nodes[5]) == zp.lam[5]


class TestFirstVariation:
    def test_zero_direction(self):
        problem, traj, _, _ = build_paper(40)
        zp = integrate_z(problem, traj)
        eta = VariationDirection.from_free(problem.grid, np.zeros(problem.grid.n - 1))
        assert first_variation(problem, traj, zp, eta) == 0.0

    def test_linearity(self):
        problem, traj, _, _ = build_paper(40)
        zp = integrate_z(problem, traj)
        g = problem.grid
        rng = np.random.default_rng(2)
        free = rng.normal(size=g.n - 1)
        v1 = first_variation(problem, traj, zp, VariationDirection.from_free(g, free))
        v2 = first_variation(problem, traj, zp, VariationDirection.from_free(g, 2.0 * free))
        assert abs(v2 - 2.0 * v1) <= 1e-12 * max(1.0, abs(v1))

    def test_matches_central_difference_on_reference_problem(self):
        problem, ptraj, _, _ = build_paper(40)
        g = problem.grid
        # sample the reference extremal so nodes can be nudged
        x, _, _ = ptraj.eval_many(g.nodes)
        traj = SampledTrajectory(g, x)
        zp = integrate_z(problem, traj)
        j = int(np.argmin(np.abs(g.nodes - 0.5)))
        eta = unit_direction(g, j)
        analytic = first_variation(problem, traj, zp, eta)
        eps = 1e-5
        zp_plus = integrate_z(problem, hg.perturb(traj, j, +eps))
        zp_minus = integrate_z(problem, hg.perturb(traj, j, -eps))
        oracle = (zp_plus.z_b - zp_minus.z_b) / (2.0 * eps)
        assert abs(analytic - oracle) < 1e-6

    def test_random_directions_match_oracle_on_three_bundles(self):
        # the delayed problem needs the finer grid: its seed kinks at t = a,
        # which inflates the quadrature constant next to the junction
        from conftest import build_bundle

        rng = np.random.default_rng(17)
        eps = 1e-5
        for name, n in (("paper-s4", 80), ("herglotz-damped", 40),
                        ("classical-line", 40)):
            problem, _, _, _ = build_bundle(name, n=n)
            g = problem.grid
            traj = hg.seed_trajectory(problem, "linear")
            zp = integrate_z(problem, traj)
            free = list(g.free_indices)
            for j in rng.choice(free, size=20, replace=True):
                j = int(j)
                eta = unit_direction(g, j)
                analytic = first_variation(problem, traj, zp, eta)
                plus = integrate_z(problem, hg.perturb(traj, j, +eps)).z_b
                minus = integrate_z(problem, hg.perturb(traj, j, -eps)).z_b
                assert abs(analytic - (plus - minus) / (2 * eps)) < 1e-6

    def test_unit_direction_bounds(self):
        g = build_grid(0.0, 2.0, 1.0, 8)
        with pytest.raises(errors.FixedNode):
            unit_direction(g, g.m)      # node at t = a is pinned
        with pytest.raises(errors.FixedNode):
            unit_direction(g, g.n + g.m)

    def test_direction_vanishes_on_history_and_endpoint(self):
        g = build_grid(0.0, 2.0, 1.0, 8)
        eta = unit_direction(g, g.m + 2)
        vals, dvals = eta.eval_many(np.array([-0.7, g.a, g.b]))
        assert vals[0] == 0.0 and dvals[0] == 0.0
        assert vals[1] == 0.0
        assert vals[2] == 0.0


class TestOrderOfAccuracy:
    def test_rk4_order_on_reference_problem(self):
        ref = E * E - E
        errs = {}
        for n in (16, 32):
            problem, traj, _, _ = build_paper(n)
            errs[n] = abs(integrate_z(problem, traj).z_b - ref)
        assert 12.0 <= errs[16] / errs[32] <= 20.0


class TestSamples:
    def test_one_trajectory_sampling_serves_every_consumer(self, monkeypatch):
        problem, _, group, _ = build_paper(100)
        traj = wavy_sampled(problem)
        eta = VariationDirection.from_free(problem.grid, np.ones(problem.grid.n - 1))
        calls = []
        original = SampledTrajectory.eval_many

        def counted(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SampledTrajectory, "eval_many", counted)
        zp = integrate_z(problem, traj)
        variational_gradient(problem, traj, zp)
        first_variation(problem, traj, zp, eta)
        group_variation(problem, traj, zp, group)
        assert len(calls) == 4

    def test_zpath_of_another_trajectory_is_rejected(self):
        problem, traj, group, _ = build_paper(40)
        zp = integrate_z(problem, traj)
        other = hg.seed_trajectory(problem, "linear")
        eta = VariationDirection.from_free(problem.grid, np.ones(problem.grid.n - 1))
        with pytest.raises(errors.InvalidTrajectory):
            variational_gradient(problem, other, zp)
        with pytest.raises(errors.InvalidTrajectory):
            first_variation(problem, other, zp, eta)
        with pytest.raises(errors.InvalidTrajectory):
            group_variation(problem, other, zp, group)
