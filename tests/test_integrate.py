import gc
import math
import sys
import threading
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

import herglotz as hg
from herglotz import errors, expr, integrate
from herglotz.bundles import BUNDLE_NAMES
from herglotz.integrate import (
    Panels,
    VariationDirection,
    _stages,
    first_variation,
    integrate_z,
    integration_stops,
)
from herglotz.noether import group_variation
from herglotz.solver import solve_direct, variational_gradient
from herglotz.trajectory import PiecewiseTrajectory, SampledTrajectory, build_grid

from conftest import (
    build_bundle,
    build_paper,
    masked_first_variation,
    per_call_gradient,
    per_call_panel_read,
    per_call_spline_read,
    unit_direction,
    wavy_sampled,
    whole_tree_z,
)

E = math.e


def tree_size(e):
    """The number of nodes of an expression tree."""
    return 1 + sum(tree_size(c) for c in vars(e).values()
                   if not isinstance(c, (str, float)))


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

    # x = -t reaches 0 at t = 0: a domain error (exit 3) on the affine path
    # and in the stage walk alike
    @pytest.mark.parametrize("text", ["log(x)", "log(x) + z^2"])
    def test_domain_error_propagates(self, text):
        g = build_grid(0.0, 1.0, 0.0, 10)
        problem = hg.HerglotzProblem(grid=g, gamma=0.0, beta=-1.0,
                                     history="0", lagrangian=text)
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
        "1e300*x*1e300 + exp(exp(exp(5 + x))) - z*z",
    ])
    def test_overflow_is_silent_and_non_finite(self, text):
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

    @staticmethod
    def _count_walks(monkeypatch):
        """Visits of expr._dual, split by bindings: a stage walk binds floats,
        a walk over the samples binds arrays."""
        visits = {"stage": 0, "samples": 0}
        original = expr._dual

        def counted(e, b, seed):
            visits["samples" if isinstance(b["t"], np.ndarray) else "stage"] += 1
            return original(e, b, seed)

        monkeypatch.setattr(expr, "_dual", counted)
        return visits

    @pytest.mark.parametrize("name", BUNDLE_NAMES)
    def test_bundles_walk_no_stage(self, monkeypatch, name):
        # every bundle's L is affine in z: one walk over the samples (every
        # node of L once) gives L = A + B z there, and no stage walks. A
        # sampled trajectory reads no expression, so every visit is L's
        problem, _, _, _ = build_bundle(name, n=100)
        traj = wavy_sampled(problem)
        visits = self._count_walks(monkeypatch)
        integrate_z(problem, traj)
        assert visits == {"stage": 0, "samples": tree_size(problem.lagrangian)}

    def test_non_affine_stages_walk_the_whole_tree(self, monkeypatch):
        # L = dxtau^2 + sin(z) is not affine: each of the 4 stages of each of
        # the k steps walks all 6 nodes on floats, and nothing walks the samples
        problem, _, _, _ = build_paper(100)
        problem = replace(problem, lagrangian=expr.parse("dxtau^2 + sin(z)"))
        traj = wavy_sampled(problem)
        visits = self._count_walks(monkeypatch)
        integrate_z(problem, traj)
        k = len(integration_stops(problem, traj)[0]) - 1
        assert visits == {"stage": 6 * 4 * k, "samples": 0}

    @pytest.mark.parametrize("text", ["dxtau^2 + z", "dxtau^2 + sin(z)"])
    def test_integration_frees_the_samples_without_the_cycle_collector(self, text):
        # a reference cycle would keep the sample arrays alive until the
        # cyclic collector runs, and resident memory grows across integrations
        problem, _, _, _ = build_paper(20)
        problem = replace(problem, lagrangian=expr.parse(text))
        traj = wavy_sampled(problem)
        gc.disable()
        try:
            zp = integrate_z(problem, traj)
            alive = [weakref.ref(zp.panels)] + [
                weakref.ref(zp.panels.bind[name]) for name in ("x", "dx", "xtau", "dxtau")]
            del zp
            assert [ref() for ref in alive] == [None] * len(alive)
        finally:
            gc.enable()

    def test_affine_blow_up_is_non_finite_where_the_stages_say(self):
        # z' = 50 z from z(0) = 1 overflows before t = 20; the message names
        # the t the stage walk names
        g = build_grid(0.0, 20.0, 0.0, 200)
        problem = hg.HerglotzProblem(grid=g, gamma=1.0, beta=1.0,
                                     history="0", lagrangian="50*z")
        traj = PiecewiseTrajectory(g, [(0.0, 20.0, "t")])
        assert expr.affine(problem.lagrangian, "z", {"t": g.main_nodes}) is not None
        with pytest.raises(errors.NonFinite) as affine:
            integrate_z(problem, traj)
        with pytest.raises(errors.NonFinite) as walked:
            _stages(problem, Panels(problem, traj))
        assert str(affine.value) == str(walked.value)

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

    def test_nan_time_is_out_of_domain(self):
        problem, traj, _, _ = build_paper(8)
        zp = integrate_z(problem, traj)
        for read in (zp.z_at, zp.lambda_at):
            with pytest.raises(errors.OutOfDomain):
                read(float("nan"))
            with pytest.raises(errors.OutOfDomain):
                read(np.array([1.0, np.nan]))

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
        vals, dvals = eta.eval_many(np.array([-0.7, g.a, g.b]), want_ddx=False)
        assert vals[0] == 0.0 and dvals[0] == 0.0
        assert vals[1] == 0.0
        assert vals[2] == 0.0


@pytest.mark.parametrize("name", BUNDLE_NAMES)
@pytest.mark.parametrize("n", [100, None], ids=["n100", "shipped"])
def test_first_variation_bitwise_equal_to_masked_spline_reads(name, n):
    # the direction goes through the panel sampler like the trajectory; its
    # zero history and the left limits at the panel rights give the zeros
    # that a separate spline and the Panels.inside mask gave
    problem, traj, _, _ = build_bundle(name, n)
    g = problem.grid
    rng = np.random.default_rng(23)
    for tr in (traj, wavy_sampled(problem)):
        zp = integrate_z(problem, tr)
        for _ in range(3):
            eta = VariationDirection.from_free(g, rng.normal(size=g.n - 1))
            assert first_variation(problem, tr, zp, eta) == \
                masked_first_variation(problem, tr, zp, eta)


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
        # a sampled trajectory on the plan's grid is read once, at the located
        # panel samples, and never through eval_many
        problem, _, group, _ = build_paper(100)
        traj = wavy_sampled(problem)
        eta = VariationDirection.from_free(problem.grid, np.ones(problem.grid.n - 1))
        calls = {"eval_many": [], "read_located": []}
        for name, reads in calls.items():
            original = getattr(SampledTrajectory, name)

            def counted(self, *args, _original=original, _reads=reads, **kwargs):
                if self is traj:    # directions are sampled trajectories too
                    _reads.append(1)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(SampledTrajectory, name, counted)
        zp = integrate_z(problem, traj)
        variational_gradient(problem, traj, zp)
        first_variation(problem, traj, zp, eta)
        group_variation(problem, traj, zp, group)
        assert len(calls["read_located"]) == 1
        assert len(calls["eval_many"]) == 0

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


def _bits(*arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


class TestPanelPlan:
    """The panel samples of a grid's sampled trajectories are located once;
    every trajectory and direction on that grid reads there."""

    @pytest.mark.parametrize("name", BUNDLE_NAMES)
    @pytest.mark.parametrize("n", [100, None], ids=["n100", "shipped"])
    def test_planned_reads_equal_per_call_reads(self, name, n):
        problem, traj, _, _ = build_bundle(name, n)
        for tr in (traj, wavy_sampled(problem)):
            zp = integrate_z(problem, tr)
            P = zp.samples(tr)
            assert _bits(P.x, P.dx, P.xtau, P.dxtau) == _bits(*per_call_panel_read(P, tr))
            zl = per_call_spline_read(zp._spline, P.times, (0,))[0]
            assert _bits(P.z, P.lam) == _bits(*zl.T)
            assert _bits(variational_gradient(problem, tr, zp)) == \
                _bits(per_call_gradient(problem, tr, zp))

    def test_samples_located_once_per_grid_over_a_solve(self, monkeypatch):
        problem, _, _, _ = build_paper(100)
        counts = {"integration_stops": 0, "locate": 0}
        for name in counts:
            original = getattr(integrate, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(integrate, name, counted)
        result = solve_direct(problem)
        assert result.converged and result.iterations > 10
        # one plan; its samples located on the [a, b] and the history nodes
        assert counts == {"integration_stops": 1, "locate": 2}

    def test_plan_arrays_are_read_only(self):
        problem, _, _, _ = build_paper(40)
        traj = wavy_sampled(problem)
        zp = integrate_z(problem, traj)
        before = variational_gradient(problem, traj, zp)
        plan = zp.samples(traj).plan
        shared = [plan.node_pos, plan.hs, plan.times, plan.delayed, plan.inside, plan.band]
        for loc in (plan.main, plan.hist):
            shared += [loc.i, loc.z, loc.rows, loc.at]
        for arr in shared:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[1]
        again = integrate_z(problem, traj)
        assert _bits(variational_gradient(problem, traj, again)) == _bits(before)

    def test_direction_on_another_grid_is_read_afresh(self, monkeypatch):
        # a grid with another n, and an equal but distinct grid object: neither
        # reads through this grid's plan, and each gives the per-call value
        problem, _, _, _ = build_paper(100)
        g = problem.grid
        traj = wavy_sampled(problem)
        zp = integrate_z(problem, traj)
        P = zp.samples(traj)
        rng = np.random.default_rng(3)
        coarse = build_grid(g.a, g.b, g.tau, 50)
        twin = build_grid(g.a, g.b, g.tau, g.n)
        assert twin == g and twin is not g
        free = rng.normal(size=g.n - 1)
        planned = first_variation(problem, traj, zp, VariationDirection.from_free(g, free))
        located = []
        original = SampledTrajectory.read_located
        monkeypatch.setattr(SampledTrajectory, "read_located",
                            lambda self, *a: located.append(1) or original(self, *a))
        for eta in (VariationDirection.from_free(coarse, rng.normal(size=49)),
                    VariationDirection.from_free(twin, free)):
            eta_s, deta_s, eta_d, deta_d = per_call_panel_read(P, eta)
            f = P.lam * (P.table("x") * eta_s + P.table("dx") * deta_s
                         + P.table("xtau") * eta_d + P.table("dxtau") * deta_d)
            expected = float(np.sum(P.simpson(f))) / zp.lambda_b
            assert first_variation(problem, traj, zp, eta) == expected
        assert expected == planned
        assert located == []

    def test_trajectory_and_problem_on_a_twin_grid(self):
        problem, _, _, _ = build_paper(100)
        g = problem.grid
        traj = wavy_sampled(problem)
        twin = build_grid(g.a, g.b, g.tau, g.n)
        zp = integrate_z(problem, traj)
        grad = variational_gradient(problem, traj, zp)
        other = SampledTrajectory(twin, traj.values)
        zp_other = integrate_z(problem, other)
        assert _bits(zp_other.z, zp_other.lam) == _bits(zp.z, zp.lam)
        assert _bits(variational_gradient(problem, other, zp_other)) == _bits(grad)
        # the samples were located on the plan's grid, the problem names the twin
        assert _bits(variational_gradient(replace(problem, grid=twin), traj, zp)) == \
            _bits(grad)

    def test_threads_share_one_fresh_plan(self):
        # threads race to fill in the plan of a fresh grid; every result is
        # the serial one, bit for bit
        problem, _, _, _ = build_paper(100)
        trajs = [wavy_sampled(problem, amplitude=0.1 * (j + 1)) for j in range(6)]

        def run(tr):
            zp = integrate_z(problem, tr)
            return _bits(zp.z, zp.lam, variational_gradient(problem, tr, zp))

        results = [None] * len(trajs)

        def work(j):
            results[j] = run(trajs[j])

        assert problem.grid.plan_slot == []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(j,)) for j in range(len(trajs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert results == [run(tr) for tr in trajs]

    def test_only_the_grids_sampled_trajectories_share_its_plan(self):
        problem, traj, _, _ = build_paper(40)
        g = problem.grid
        assert isinstance(traj, PiecewiseTrajectory)
        first, again = integrate_z(problem, traj), integrate_z(problem, traj)
        assert first.samples(traj).plan is not again.samples(traj).plan
        assert g.plan_slot == []
        plans = [integrate_z(problem, tr).samples(tr).plan
                 for tr in (wavy_sampled(problem), hg.seed_trajectory(problem, "linear"))]
        assert g.plan_slot == plans[:1] and plans[1] is plans[0]

    def test_gradient_on_another_grid_is_rejected(self):
        problem, _, _, _ = build_paper(100)
        traj = wavy_sampled(problem)
        zp = integrate_z(problem, traj)
        g = problem.grid
        coarse = replace(problem, grid=build_grid(g.a, g.b, g.tau, 50))
        with pytest.raises(errors.InvalidTrajectory):
            variational_gradient(coarse, traj, zp)
