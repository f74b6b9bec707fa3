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
from herglotz import errors, expr, integrate, trajectory
from herglotz.bundles import BUNDLE_NAMES
from herglotz.conditions import el_residuals, node_tables, weak_form_values
from herglotz.integrate import (
    Panels,
    VariationDirection,
    _stages,
    first_variation,
    integrate_z,
    integration_stops,
    panel_plan,
)
from herglotz.noether import group_variation
from herglotz.solver import solve_direct, variational_gradient
from herglotz.trajectory import PiecewiseTrajectory, SampledTrajectory, build_grid

from conftest import (
    affine_rk4,
    build_bundle,
    build_paper,
    masked_first_variation,
    node_plan,
    per_call_first_variation,
    per_call_panel_read,
    per_name_table,
    one_sided_piece_read,
    per_panel_hermite,
    unit_direction,
    wavy_sampled,
    whole_tree_z,
)

E = math.e
U = 2.0 ** -53


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
        "abs(z)*1e200*1e200",
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
        # lambda, one running sum of -B, is bit for bit the whole-tree walk's,
        # as no bundle's L has a function or a ^ other than ^2, whose kernels
        # may round apart; z is not (the scan rounds otherwise, see
        # test_z_near_exact_rk4)
        problem, traj, _, _ = build_bundle(name, n=n)
        for tr in (traj, wavy_sampled(problem)):
            zp = integrate_z(problem, tr)
            _, lam = whole_tree_z(problem, tr)
            assert zp.lam.tobytes() == lam.tobytes()

    @pytest.mark.parametrize("name", BUNDLE_NAMES)
    @pytest.mark.parametrize("n", [100, 2000])
    def test_z_near_exact_rk4(self, name, n):
        # z is within 16 u M_i of exact RK4 on the same A and B columns at
        # every stop, M_i the magnitude of the terms the formulas round
        problem, traj, _, _ = build_bundle(name, n=n)
        for tr in (traj, wavy_sampled(problem)):
            zp = integrate_z(problem, tr)
            P = Panels(problem, tr)
            A, B = expr.affine(problem.lagrangian, "z", P.bind)
            exact = affine_rk4(P, A, B, problem.gamma)
            M = affine_rk4(P, A, B, problem.gamma, exact=False)
            assert np.all(np.abs(zp.z - exact) <= 16 * U * M)

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

    def test_overflowing_step_maps_fall_back_to_the_stages(self, monkeypatch):
        # z' = 400 z from z(0) = 0: the composed maps' r overflows before
        # t = 2 and r * 0 is NaN, so the scan gives up and the stage walk
        # keeps z at exactly zero
        g = build_grid(0.0, 2.0, 0.0, 400)
        problem = hg.HerglotzProblem(grid=g, gamma=0.0, beta=1.0,
                                     history="0", lagrangian="400*z")
        traj = PiecewiseTrajectory(g, [(0.0, 2.0, "t")])
        walks = []
        monkeypatch.setattr(integrate, "_stages",
                            lambda *a, _f=_stages: walks.append(1) or _f(*a))
        zp = integrate_z(problem, traj)
        assert walks == [1]
        assert np.all(zp.z == 0.0)

    def test_affine_overflow_with_an_offset_names_the_stages_t(self):
        # z' = 1000 z + 1 from z(0) = 1 overflows inside [0, 2]
        g = build_grid(0.0, 2.0, 0.0, 100)
        problem = hg.HerglotzProblem(grid=g, gamma=1.0, beta=1.0,
                                     history="0", lagrangian="1000*z + 1")
        traj = PiecewiseTrajectory(g, [(0.0, 2.0, "t")])
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
        (i1,) = np.flatnonzero(problem.grid.main_nodes == 1.0)
        assert abs(zp.lam[i1] - math.exp(-1.0)) < 1e-8

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

    @pytest.mark.parametrize("backend", ["sampled", "pieces"])
    def test_underflowed_factor_is_non_finite(self, backend):
        # z(b) is finite but lambda(b) = exp(-800) underflows to 0.0: every
        # division by lambda raises NonFinite, with no RuntimeWarning
        g = build_grid(0.0, 1.0, 0.0, 2000)
        problem = hg.HerglotzProblem(grid=g, gamma=0.0, beta=1.0, history="0",
                                     lagrangian="exp(800*(t - 1))*dx^2 + 800*z")
        if backend == "sampled":
            traj = hg.seed_trajectory(problem, "linear")
        else:
            traj = PiecewiseTrajectory(g, [(0.0, 1.0, "t")])
        zp = integrate_z(problem, traj)
        assert math.isfinite(zp.z_b) and zp.lambda_b == 0.0
        eta = VariationDirection.from_free(g, np.ones(g.n - 1))
        group = hg.SymmetryGroup(sigma="0", xi="1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: variational_gradient(problem, traj, zp),
                         lambda: first_variation(problem, traj, zp, eta),
                         lambda: group_variation(problem, traj, zp, group),
                         lambda: weak_form_values(problem, traj, zp,
                                                  *el_residuals(problem, traj, zp))):
                with pytest.raises(errors.NonFinite, match="underflowed to 0"):
                    call()


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
        vals, dvals = eta.eval_many(np.array([-0.7, g.a, g.b]))[:2]
        assert vals[0] == 0.0 and dvals[0] == 0.0
        assert vals[1] == 0.0
        assert vals[2] == 0.0


@pytest.mark.parametrize("name", BUNDLE_NAMES)
@pytest.mark.parametrize("n", [100, None], ids=["n100", "shipped"])
def test_first_variation_bitwise_equal_to_masked_spline_reads(name, n):
    # the direction goes through the panel sampler like the trajectory; its
    # zero history and the left limits at the panel rights give the zeros
    # that a separate spline and the Panels.inside mask give. The oracle
    # reads by scipy's sums by powers, so the two agree to round-off of the
    # pairing's terms, not bit for bit
    problem, traj, _, _ = build_bundle(name, n)
    g = problem.grid
    rng = np.random.default_rng(23)
    for tr in (traj, wavy_sampled(problem)):
        zp = integrate_z(problem, tr)
        P = zp.samples(tr)
        for _ in range(3):
            eta = VariationDirection.from_free(g, rng.normal(size=g.n - 1))
            bound = 16 * U * pairing_magnitude(P, P.read(eta)) / zp.lambda_b
            assert abs(first_variation(problem, tr, zp, eta)
                       - masked_first_variation(problem, tr, zp, eta)) <= bound


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
        # a sampled trajectory on the plan's grid is read once, at its
        # nodes and the plan's midpoints, and never through eval_many
        problem, _, group, _ = build_paper(100)
        traj = wavy_sampled(problem)
        eta = VariationDirection.from_free(problem.grid, np.ones(problem.grid.n - 1))
        calls = {"eval_many": [], "read_grid": []}
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
        assert len(calls["read_grid"]) == 1
        assert len(calls["eval_many"]) == 0

    @pytest.mark.parametrize("name", BUNDLE_NAMES)
    def test_tables_equal_the_per_name_walk(self, name):
        # panel samples of the bundle's trajectory and of a sampled one, and
        # the node tables: every table has the bits of its own walk of L
        problem, traj, _, _ = build_bundle(name, n=100)
        kinds = []
        for t in (traj, wavy_sampled(problem)):
            zp = integrate_z(problem, t)
            kinds += [zp.samples(t), node_tables(problem, t, zp)]
        for S in kinds:
            for table in ("L", "t", "x", "dx", "xtau", "dxtau", "z"):
                got, want = S.table(table), per_name_table(S, table)
                assert got.flags.c_contiguous and got.shape == S.bind["t"].shape
                assert got.tobytes() == want.tobytes()

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


def overflowing_read_problem(lagrangian):
    """A problem on [0, 1] with tau = 0 along x = exp(1000 t), whose reads
    x and x' are infinite from t = 0.71 on (reading them overflows, which
    numpy warns of: callers silence it)."""
    g = build_grid(0.0, 1.0, 0.0, 20)
    problem = hg.HerglotzProblem(grid=g, gamma=0.5, beta=1.0, history="1",
                                 lagrangian=lagrangian)
    return problem, PiecewiseTrajectory(g, [(0.0, 1.0, "exp(1000*t)")])


class TestCheckedBindings:
    """Each read of the panel samples that L walks over is checked finite
    once, where Panels makes it, and z and lambda where ZPath.samples makes
    them; the walks over those bindings scan no array again."""

    @pytest.fixture
    def isfinite_calls(self, monkeypatch):
        calls = []
        original = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda v, *a, **k: calls.append(np.shape(v))
                            or original(v, *a, **k))
        return calls

    @pytest.mark.parametrize("name", BUNDLE_NAMES)
    @pytest.mark.parametrize("text", [None, "dxtau^2 + sin(z)", "x*dx + t*xtau + dxtau^2*z"])
    def test_walks_over_the_panel_bindings_scan_nothing(self, isfinite_calls, name, text):
        problem, _, _, _ = build_bundle(name, 100)
        if text is not None:
            problem = replace(problem, lagrangian=expr.parse(text))
        traj = wavy_sampled(problem)
        P = integrate_z(problem, traj).samples(traj)
        isfinite_calls.clear()
        expr.affine(P.lagrangian, "z", P.bind)
        for table in ("L", "t", "x", "dx", "xtau", "dxtau", "z"):
            P.table(table)
        assert isfinite_calls == []
        # the same walk over a plain mapping scans each array it looks up
        expr.value_and_partial(P.lagrangian, "z", dict(P.bind))
        assert len(isfinite_calls) >= len(P.variables)

    @pytest.mark.parametrize("text", ["x + z", "dx*dx + z", "xtau + 0.5*z",
                                      "exp(-t)*dxtau + z", "z^2 + 0*x", "sin(dx)*z*z",
                                      "exp(-x) + z", "tanh(dx)*z"])
    def test_non_finite_read_L_reads_is_an_invalid_binding(self, text):
        # affine in z or not, the read is refused as a lookup refuses it, also
        # where L maps it to a finite value (exp(-inf) = 0, tanh(inf) = 1)
        problem, traj = overflowing_read_problem(text)
        with np.errstate(over="ignore"), pytest.raises(errors.InvalidBinding):
            integrate_z(problem, traj)

    @pytest.mark.parametrize("text", ["t + z", "t*t - z", "z^2", "1"])
    def test_non_finite_read_L_does_not_read_raises_nothing(self, text):
        problem, traj = overflowing_read_problem(text)
        with np.errstate(over="ignore"):
            zp = integrate_z(problem, traj)
        P = zp.samples(traj)
        assert not np.all(np.isfinite(P.x))
        assert np.all(np.isfinite(P.z)) and np.all(np.isfinite(P.lam))
        for table in ("L", "t", "x", "dx", "xtau", "dxtau", "z"):
            assert np.all(np.isfinite(P.table(table)))

    @pytest.mark.parametrize("text", ["dx", "z"])
    def test_table_of_a_binding_is_read_only(self, text):
        # L a bare variable: its table is that binding's values, and writing
        # into it raises, while the binding itself is left as it was
        problem, _, _, _ = build_paper(20)
        problem = replace(problem, lagrangian=expr.parse(text))
        traj = wavy_sampled(problem)
        P = integrate_z(problem, traj).samples(traj)
        binding = P.bind[text]
        writeable = binding.flags.writeable
        table = P.table("L")
        assert _bits(table) == _bits(binding)
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0
        assert binding.flags.writeable == writeable

    def test_affine_columns_are_one_array(self):
        problem, _, _, _ = build_paper(20)
        traj = wavy_sampled(problem)
        zp = integrate_z(problem, traj)
        P = zp.panels
        AB = expr.affine(problem.lagrangian, "z", dict(P.bind))
        assert AB.shape == (2, 3 * P.k) and AB.flags.c_contiguous
        assert _bits(zp.affine) == _bits(AB)
        A, B = zp.affine
        assert _bits(A, B) == _bits(AB[0], AB[1])


class TestZPathSamples:
    """z and lambda at the panel samples: the stop values at the panel ends,
    RK4's cubic Hermite dense output at the midpoints."""

    @pytest.mark.parametrize("name, lagrangian", [
        ("paper-s4", None), ("paper-s4-nonextremal", None), ("herglotz-damped", None),
        ("paper-s4", "dxtau^2 + sin(z)")])
    def test_midpoints_agree_with_a_finer_integration(self, name, lagrangian):
        # every midpoint at n = 100 is a node at 16 n, where z and lambda are
        # the integration's own; z' jumps at the breakpoint t = 1 of paper-s4,
        # which one spline through all the nodes read at O(h)
        runs = []
        for n in (100, 1600):
            problem, traj, _, _ = build_bundle(name, n)
            if lagrangian is not None:
                problem = replace(problem, lagrangian=expr.parse(lagrangian))
            runs.append((problem, integrate_z(problem, traj), traj))
        (_, zp, traj), (fine, zf, _) = runs
        P = zp.samples(traj)
        mids = P.times[P.k: 2 * P.k]
        at = np.rint((mids - fine.grid.a) / fine.grid.h).astype(int)
        assert np.max(np.abs(fine.grid.main_nodes[at] - mids)) < 1e-12
        assert np.max(np.abs(P.z[P.k: 2 * P.k] - zf.z[at])) <= 1e-7
        assert np.max(np.abs(P.lam[P.k: 2 * P.k] - zf.lam[at])) <= 1e-7

    def test_invariance_defect_is_fourth_order(self):
        # the defect of sigma = t integrates L sigma_dot = L, whose z changes
        # slope at t = 1; the midpoint z of each panel keeps RK4's order
        group = hg.SymmetryGroup(sigma="t", xi="0")

        def defect(n):
            problem, traj, _, _ = build_paper(n)
            return group_variation(problem, traj, integrate_z(problem, traj), group).values

        ref = defect(3200)
        errs = [np.max(np.abs(defect(n) - ref[:: 3200 // n])) for n in (100, 200, 400, 800)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 3.8), orders

    def test_piecewise_trajectory_locates_nothing(self, monkeypatch):
        # a trajectory that reads no spline needs no location of its samples
        problem, traj, group, _ = build_paper(100)
        located = []
        original = trajectory._read
        monkeypatch.setattr(trajectory, "_read",
                            lambda *a: located.append(1) or original(*a))
        zp = integrate_z(problem, traj)
        zp.samples(traj)
        group_variation(problem, traj, zp, group)
        assert located == []

    def test_non_finite_slope_is_non_finite(self):
        # stop values where L = dxtau^2 + 0.1 z^2 overflows at every panel end
        problem, traj, _, _ = build_paper(20)
        problem = replace(problem, lagrangian=expr.parse("dxtau^2 + 0.1*z*z"))
        zp = integrate_z(problem, traj)
        huge = replace(zp, z=np.full_like(zp.z, 1e200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.NonFinite):
                huge.samples(traj)


def _bits(*arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def pairing_magnitude(P, reads):
    """sum |w lambda L_v read| over the samples and the four partials v: the
    magnitude of the terms that the first variation and the gradient pair
    before they divide by lambda(b)."""
    return sum(np.sum(np.abs(P.plan.weights * P.lam * P.table(name) * r))
               for name, r in zip(("x", "dx", "xtau", "dxtau"), reads))


def assert_gradient_pairs(problem, traj, zpath):
    """The gradient is the transpose of the first variation: g . eta =
    first_variation(eta) within 16 u of the pairing's magnitude over
    lambda(b), for random directions eta."""
    g = variational_gradient(problem, traj, zpath)
    P, grid = zpath.samples(traj), problem.grid
    rng = np.random.default_rng(grid.n)
    for _ in range(3):
        free = rng.normal(size=grid.n - 1)
        eta = VariationDirection.from_free(grid, free)
        want = first_variation(problem, traj, zpath, eta)
        bound = 16 * U * pairing_magnitude(P, P.read(eta)) / zpath.lambda_b
        assert abs(g @ free - want) <= bound


def assert_delayed_panels(plan):
    """A panel's delayed samples are its delayed panel: the delayed midpoint
    is the midpoint of the delayed ends, bit for bit, and the delayed
    midpoint of panel i >= m is the midpoint of panel i - m."""
    k, m, d = plan.k, plan.grid.m, plan.delayed
    assert _bits(d[k:2 * k]) == _bits(0.5 * (d[:k] + d[2 * k:]))
    assert _bits(d[k + m:2 * k]) == _bits(plan.times[k:2 * k - m])


class TestPanelPlan:
    """The panel plan of a grid is built once; every trajectory and
    direction on that grid reads by slices of one read of the grid, with the
    bits of a per-call search."""

    @pytest.mark.parametrize("name", BUNDLE_NAMES)
    @pytest.mark.parametrize("n", [2, 4, 20, 100, None, 98, 196, 206, 214, 322],
                             ids=["n2", "n4", "n20", "n100", "shipped",
                                  "n98", "n196", "n206", "n214", "n322"])
    def test_planned_reads_equal_per_call_reads(self, name, n):
        # every breakpoint is a node: paper-s4's pieces break at 1.0, which
        # at n = 98, 196, 206, 214 and 322 is one ulp off the node a + m h
        # and is put on it
        problem, traj, _, _ = build_bundle(name, n)
        for tr in (traj, wavy_sampled(problem)):
            zp = integrate_z(problem, tr)
            P = zp.samples(tr)
            if isinstance(tr, PiecewiseTrajectory):
                assert [p[0] for p in tr.pieces[1:]] == list(problem.grid.nodes[list(tr.kinks)])
            assert_delayed_panels(P.plan)
            assert _bits(P.x, P.dx, P.xtau, P.dxtau) == _bits(*per_call_panel_read(P, tr))
            assert _bits(P.z, P.lam) == _bits(*per_panel_hermite(problem, zp))
            assert_gradient_pairs(problem, tr, zp)

    def test_grid_off_a_plus_tau_reads_by_the_grid_with_the_same_bits(self):
        # a + m h is one ulp off a + tau on [0, 1] at tau = 0.3, n = 10: the
        # image of the breakpoint a is the node a + m h all the same, so the
        # panels are the grid's intervals
        g = build_grid(0.0, 1.0, 0.3, 10)
        assert g.main_nodes[3] == 0.30000000000000004
        problem = hg.HerglotzProblem(grid=g, gamma=0.5, beta=1.0, history="-t",
                                     lagrangian="dx^2 + dxtau^2 + x*xtau + 0.5*z")
        tr = wavy_sampled(problem)
        zp = integrate_z(problem, tr)
        P = zp.samples(tr)
        assert _bits(P.x, P.dx, P.xtau, P.dxtau) == _bits(*per_call_panel_read(P, tr))
        assert _bits(P.z, P.lam) == _bits(*per_panel_hermite(problem, zp))
        assert_gradient_pairs(problem, tr, zp)

    def test_a_kink_one_ulp_off_its_node_is_put_on_it(self):
        # the kink at 0.3 is put on the node 0.30000000000000004, and its
        # image on the node at 0.6: the delayed right end of panel 5 is the
        # kink, read from its left piece, and z is that of the same pieces
        # given with the node as their boundary
        g = build_grid(0.0, 1.0, 0.3, 10)
        problem = hg.HerglotzProblem(grid=g, gamma=0.5, beta=1.0, history="-t",
                                     lagrangian="dx^2 + dxtau^2 + x*xtau + 0.5*z")
        kink = g.main_nodes[3]
        assert kink == 0.30000000000000004
        given, on_node = (
            PiecewiseTrajectory(g, [(-0.3, t, "-t"), (t, 1.0, "-0.3 + 2*(t - 0.3)")])
            for t in (0.3, kink))
        assert given.pieces[1][0] == on_node.pieces[1][0] == kink
        assert given.kinks == on_node.kinks == (2 * g.m,)
        zp, want = integrate_z(problem, given), integrate_z(problem, on_node)
        P = zp.samples(given)
        assert P.dxtau[2 * P.k + 5] == -1.0
        assert _bits(P.x, P.dx, P.xtau, P.dxtau) == _bits(*per_call_panel_read(P, given))
        assert _bits(zp.z, zp.lam) == _bits(want.z, want.lam)
        assert_gradient_pairs(problem, given, zp)

    def test_plan_of_a_piecewise_trajectory(self):
        # paper-s4's pieces break at the nodes t = 0 and t = 1: its plan is the
        # grid's, and the first variation has the bits of per-call reads
        problem, traj, _, _ = build_paper(100)
        zp = integrate_z(problem, traj)
        P = zp.samples(traj)
        assert P.plan is panel_plan(problem.grid)
        assert_delayed_panels(P.plan)
        assert_gradient_pairs(problem, traj, zp)
        rng = np.random.default_rng(5)
        for _ in range(3):
            eta = VariationDirection.from_free(problem.grid, rng.normal(size=problem.grid.n - 1))
            assert first_variation(problem, traj, zp, eta) == \
                per_call_first_variation(P, zp, eta)

    def test_a_grid_too_fine_for_its_midpoints_is_refused_by_the_plan(self):
        # at 1e16 the floats are 2 apart: the midpoint of [1e16, 1e16 + 2]
        # rounds onto an end
        g = build_grid(1e16, 1e16 + 4, 0.0, 2)
        problem = hg.HerglotzProblem(grid=g, gamma=0.0, beta=1.0, history="0",
                                     lagrangian="dx^2")
        with pytest.raises(errors.BadInterval, match="midpoint"):
            integrate.PanelPlan(g)
        with pytest.raises(errors.BadInterval, match="midpoint"):
            integrate_z(problem, hg.seed_trajectory(problem))
        assert g.plan_slot == []

    def test_one_plan_and_no_interval_search_over_a_solve(self, monkeypatch):
        # the plan is built once; on its grid no spline is searched
        # (at n = 98, a + m h != a + tau)
        counts = {}
        for owner, name in ((integrate.PanelPlan, "__init__"), (trajectory, "_read")):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(owner, name, counted)
        for n in (100, 98):
            problem, _, _, _ = build_paper(n)
            counts.update(__init__=0, _read=0)
            result = solve_direct(problem)
            assert result.converged and result.iterations >= 5
            assert counts == {"__init__": 1, "_read": 0}

    def test_plan_arrays_are_read_only(self):
        problem, _, _, _ = build_paper(40)
        traj = wavy_sampled(problem)
        zp = integrate_z(problem, traj)
        before = variational_gradient(problem, traj, zp)
        plan = zp.samples(traj).plan
        shared = [plan.hs, plan.times, plan.delayed, plan.inside,
                  plan.weights, plan.adjoint.band, *plan.adjoint.factors, plan.offsets,
                  *plan.grid_read, plan.powers]
        # and the grid's factored slope matrices, which every trajectory shares
        for _, slope, _ in problem.grid.spline_geometry:
            shared += [slope.band, *slope.factors]
        for arr in shared:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[1]
        again = integrate_z(problem, traj)
        assert _bits(variational_gradient(problem, traj, again)) == _bits(before)

    def test_direction_on_another_grid_is_refused(self, monkeypatch):
        # a direction on a grid with another n is refused; one on an equal but
        # distinct grid object is read by the grid read with the planned bits
        problem, _, _, _ = build_paper(100)
        g = problem.grid
        traj = wavy_sampled(problem)
        zp = integrate_z(problem, traj)
        rng = np.random.default_rng(3)
        coarse = build_grid(g.a, g.b, g.tau, 50)
        twin = build_grid(g.a, g.b, g.tau, g.n)
        assert twin == g and twin is not g
        free = rng.normal(size=g.n - 1)
        planned = first_variation(problem, traj, zp, VariationDirection.from_free(g, free))
        with pytest.raises(errors.InvalidTrajectory, match="grid"):
            first_variation(problem, traj, zp,
                            VariationDirection.from_free(coarse, rng.normal(size=49)))
        located = []
        original = SampledTrajectory.read_grid
        monkeypatch.setattr(SampledTrajectory, "read_grid",
                            lambda self, *a: located.append(1) or original(self, *a))
        assert first_variation(problem, traj, zp,
                               VariationDirection.from_free(twin, free)) == planned
        assert located == [1]

    def test_trajectory_on_another_grid_is_refused(self):
        problem, traj, _, _ = build_paper(100)
        coarse = replace(problem, grid=build_grid(0.0, 2.0, 1.0, 50))
        for tr in (traj, wavy_sampled(problem)):
            with pytest.raises(errors.InvalidTrajectory, match="grid"):
                integrate_z(coarse, tr)

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

    def test_grid_and_plan_are_freed_without_the_cycle_collector(self):
        # the grid keeps its plan, which refers back to it weakly: a cycle
        # would keep every grid of a process alive until the collector runs
        problem, traj, _, _ = build_paper(20)
        gc.disable()
        try:
            zp = integrate_z(problem, traj)
            alive = [weakref.ref(problem.grid), weakref.ref(zp.panels.plan)]
            del problem, traj, zp
            assert [ref() for ref in alive] == [None, None]
        finally:
            gc.enable()

    def test_every_trajectory_on_the_grid_shares_its_plan(self):
        problem, traj, _, _ = build_paper(40)
        g = problem.grid
        assert isinstance(traj, PiecewiseTrajectory) and g.plan_slot == []
        plans = [integrate_z(problem, tr).samples(tr).plan
                 for tr in (traj, traj, wavy_sampled(problem),
                            hg.seed_trajectory(problem, "linear"))]
        assert g.plan_slot == plans[:1] and all(plan is plans[0] for plan in plans)

    def test_gradient_on_another_grid_is_rejected(self):
        problem, _, _, _ = build_paper(100)
        traj = wavy_sampled(problem)
        zp = integrate_z(problem, traj)
        g = problem.grid
        coarse = replace(problem, grid=build_grid(g.a, g.b, g.tau, 50))
        with pytest.raises(errors.InvalidTrajectory):
            variational_gradient(coarse, traj, zp)


def kinked_trajectory(grid, kinks):
    """A piecewise trajectory on grid whose x' jumps at the nodes of the
    given indices: slopes 1, -2, 0 and 0.5 in turn, a sine on the last
    piece; the constant piece reads its value and slope as floats."""
    ends = [float(grid.nodes[0]), *(float(grid.nodes[j]) for j in kinks), grid.b]
    pieces, x0 = [], 0.25
    for p, (t0, t1) in enumerate(zip(ends, ends[1:])):
        slope = (1.0, -2.0, 0.0, 0.5)[p % 4]
        text = repr(x0) if slope == 0.0 else f"{x0!r} + {slope!r} * (t - {t0!r})"
        if p == len(ends) - 2:
            text += f" + 0.1 * sin(3 * (t - {t0!r}))"
        pieces.append((t0, t1, text))
        x0 = float(expr.evaluate(expr.parse(text), {"t": t1}))
    return PiecewiseTrajectory(grid, pieces)


KINKED = {"tau0": (0.0, (3, 9, 15)), "tau": (0.25, (2, 5, 14))}


def kinked_problem(tau):
    g = build_grid(0.0, 1.0, tau, 20)
    return hg.HerglotzProblem(grid=g, gamma=0.5, beta=1.0, history="0.25 + t",
                              lagrangian="dx^2 + dxtau^2 + x*xtau + sin(t)*z")


def assert_node_plan(P, traj):
    """The plan's arrays are those of the written-out node plan and the panel
    reads those of four per-call searches, bit for bit."""
    want = node_plan(P.plan.grid)
    assert P.plan.k == want.k
    for name in ["hs", "times", "delayed", "inside", "offsets"]:
        got, ref = getattr(P.plan, name), getattr(want, name)
        assert got.dtype == ref.dtype and _bits(got) == _bits(ref), name
    assert _bits(P.x, P.dx, P.xtau, P.dxtau) == _bits(*per_call_panel_read(want, traj))


class TestNodeKinkPlan:
    """Every kink is a grid node, so the plan is the grid's, and a piecewise
    trajectory is read once on the grid, each piece walked once; both have
    the bits of the written-out plan and four searched reads."""

    @pytest.mark.parametrize("name", BUNDLE_NAMES)
    @pytest.mark.parametrize("n", [100, 98, None], ids=["n100", "n98", "shipped"])
    def test_bundles_equal_the_node_plan(self, name, n):
        problem, traj, _, _ = build_bundle(name, n)
        for tr in (traj, wavy_sampled(problem)):
            assert_node_plan(Panels(problem, tr), tr)

    @pytest.mark.parametrize("case", KINKED, ids=list(KINKED))
    def test_kinks_at_three_interior_nodes(self, monkeypatch, case):
        tau, kinks = KINKED[case]
        problem = kinked_problem(tau)
        g = problem.grid
        traj = kinked_trajectory(g, kinks)
        assert traj.kinks == tuple(kinks)
        assert tuple(p[0] for p in traj.pieces[1:]) == tuple(g.nodes[list(kinks)])
        reads = []
        original = PiecewiseTrajectory.read_grid
        monkeypatch.setattr(PiecewiseTrajectory, "read_grid",
                            lambda self, *a: reads.append(1) or original(self, *a))
        P = Panels(problem, traj)
        assert reads == [1]
        assert_node_plan(P, traj)
        # x' jumps at each kink, so a wrong side would show
        for j in kinks:
            left, right = (one_sided_piece_read(traj, np.array([g.nodes[j]]), side)[1][0]
                           for side in ("left", "right"))
            assert left != right
        # on an equal grid, and on a sampled trajectory's plan, the same read
        twin = replace(problem, grid=build_grid(g.a, g.b, g.tau, g.n))
        assert_node_plan(Panels(twin, traj), traj)
        Q = Panels(problem, wavy_sampled(problem))
        assert _bits(*Q.read(traj)) == _bits(*per_call_panel_read(Q.plan, traj))
        assert len(reads) == 3
        zp = integrate_z(problem, traj)
        assert_gradient_pairs(problem, traj, zp)

    @pytest.mark.parametrize("case", KINKED, ids=list(KINKED))
    def test_a_kink_one_ulp_off_a_node_is_the_node(self, monkeypatch, case):
        # the ulp is snapped away: the kink is the node, the trajectory is read
        # once on the grid, and z has the bits of the pieces given on the node
        tau, kinks = KINKED[case]
        problem = kinked_problem(tau)
        g = problem.grid
        j = kinks[-1]
        on_node = kinked_trajectory(g, kinks)
        pieces = list(on_node.pieces)
        off = np.nextafter(g.nodes[j], np.inf)
        pieces[-2:] = [(pieces[-2][0], off, pieces[-2][2]), (off, g.b, pieces[-1][2])]
        traj = PiecewiseTrajectory(g, pieces)
        assert traj.kinks == on_node.kinks
        assert _bits(traj.pieces[-1][0]) == _bits(g.nodes[j])
        reads = []
        original = PiecewiseTrajectory.read_grid
        monkeypatch.setattr(PiecewiseTrajectory, "read_grid",
                            lambda self, *a: reads.append(1) or original(self, *a))
        P = Panels(problem, traj)
        assert reads == [1]
        assert_node_plan(P, traj)
        zp, want = integrate_z(problem, traj), integrate_z(problem, on_node)
        assert _bits(zp.z, zp.lam) == _bits(want.z, want.lam)

    @pytest.mark.parametrize("n", [98, 196, 206, 214, 322, 374, 392, 394])
    def test_paper_kink_one_ulp_off_its_node_is_the_node(self, monkeypatch, n):
        # paper-s4's kink at t = 1 misses node n/2 by one ulp at these n: it is
        # that node, the pieces are read once on the grid, and z(b) has the
        # bits of the pieces given with the node as their boundary
        problem, traj, _, _ = build_paper(n)
        g = problem.grid
        node = g.main_nodes[n // 2]
        assert node != 1.0 and _bits(traj.pieces[-1][0]) == _bits(node)
        reads = []
        original = PiecewiseTrajectory.read_grid
        monkeypatch.setattr(PiecewiseTrajectory, "read_grid",
                            lambda self, *a: reads.append(1) or original(self, *a))
        zp = integrate_z(problem, traj)
        assert reads == [1]
        (t0, _, e0), (_, _, e1), (_, t1, e2) = traj.pieces
        given = PiecewiseTrajectory(g, [(t0, 0.0, e0), (0.0, node, e1), (node, t1, e2)])
        assert _bits(zp.z_b) == _bits(integrate_z(problem, given).z_b)

    def test_each_piece_is_walked_once_per_integration(self, monkeypatch):
        problem, traj, _, _ = build_paper(100)
        walks = {id(e): 0 for _, _, e in traj.pieces}
        original = expr.value_and_partial

        def counted(e, *args):
            if id(e) in walks:
                walks[id(e)] += 1
            return original(e, *args)

        monkeypatch.setattr(expr, "value_and_partial", counted)
        integrate_z(problem, traj)
        assert list(walks.values()) == [1, 1, 1]


class TestScatter:
    """Panels.scatter is the transpose of Panels.read on the node values of
    [a, b], checked against the read itself: the transpose identity on
    random weights and node values, and the dense matrix of the read at
    small n."""

    @staticmethod
    def panels(name, n):
        problem, _, _, _ = build_bundle(name, n)
        return problem.grid, Panels(problem, wavy_sampled(problem))

    @staticmethod
    def reads(P, grid, y):
        """The four reads of the trajectory with node values y on [a, b] and
        zero history, the delayed ones masked by Panels.inside: scatter
        leaves y alone where they read the history."""
        values = np.zeros(len(grid.nodes))
        values[grid.m:] = y
        x, dx, xtau, dxtau = P.read(SampledTrajectory(grid, values))
        return np.stack([x, dx, np.where(P.inside, xtau, 0.0), np.where(P.inside, dxtau, 0.0)])

    @pytest.mark.parametrize("name", BUNDLE_NAMES)
    @pytest.mark.parametrize("n", [2, 4, 20, 100, 322, 2000])
    def test_transpose_identity(self, name, n):
        grid, P = self.panels(name, n)
        rng = np.random.default_rng(n)
        for _ in range(3):
            w = rng.normal(size=(4, 3 * P.k))
            y = np.append(0.0, rng.normal(size=grid.n))
            pairs = w * self.reads(P, grid, y)
            assert abs(P.scatter(w) @ y - np.sum(pairs)) <= 16 * U * np.sum(np.abs(pairs))

    @pytest.mark.parametrize("name", BUNDLE_NAMES)
    @pytest.mark.parametrize("n", [2, 4, 20, 40])
    def test_equals_the_dense_transpose(self, name, n):
        # R has one column per node of [a, b]: the reads of its unit vector
        grid, P = self.panels(name, n)
        R = np.stack([self.reads(P, grid, e).ravel() for e in np.eye(grid.n + 1)], axis=1)
        w = np.random.default_rng(n).normal(size=(4, 3 * P.k))
        err = np.abs(P.scatter(w) - R.T @ w.ravel())
        assert np.all(err <= 32 * U * (np.abs(R).T @ np.abs(w.ravel())))


# The z-path and the gradient with every operation written out, a temporary
# per operation: the formulas that the in-place stage scan, the midpoint-only
# dense output and the gradient's rows for the partials L reads must keep
# bit for bit.

def written_out_affine_stages(k, hs, gamma, A, B):
    """integrate._affine_stages with a fresh array per operation."""
    lo, mid, hi = slice(0, k), slice(k, 2 * k), slice(2 * k, 3 * k)
    m = -B
    with np.errstate(over="ignore", invalid="ignore"):
        mus = np.cumsum(np.concatenate(
            ([0.0], hs * (m[lo] + 2.0 * m[mid] + 2.0 * m[mid] + m[hi]) / 6.0)))
        half = 0.5 * hs
        AB = np.stack([A, B])
        bm, br = B[mid], B[hi]
        s1 = AB[:, lo]
        s2 = AB[:, mid] + bm * (half * s1)
        s3 = AB[:, mid] + bm * (half * s2)
        s4 = AB[:, hi] + br * (hs * s3)
        pr = hs * (s1 + 2.0 * s2 + 2.0 * s3 + s4) / 6.0
        s = 1
        while s < k:
            pr[:, s:] += pr[:, :-s] + pr[1, s:] * pr[:, :-s]
            s *= 2
        z0 = float(gamma)
        zs = np.concatenate(([z0], z0 + pr[0] + pr[1] * z0))
    return zs, mus


def written_out_samples(zpath):
    """z and lambda at the panel samples: both columns built at all 3k
    samples from the 2k end slopes, and exp taken over the whole mu column."""
    P = zpath.panels
    k, zs, mus = P.k, zpath.z, zpath.mu
    z_ends = np.concatenate([zs[:-1], zs[1:]])

    def ends(col):
        return np.concatenate([col[:k], col[2 * k:]])

    def at_samples(u, du):
        mid = 0.5 * (u[:-1] + u[1:]) + P.hs / 8.0 * (du[:k] - du[k:])
        return np.concatenate([u[:-1], mid, u[1:]])

    with np.errstate(over="ignore", invalid="ignore"):
        if zpath.affine is None:
            bind = {name: ends(P.bind[name]) for name in ("t", "x", "dx", "xtau", "dxtau")}
            bind["z"] = z_ends
            L, Lz = (np.broadcast_to(np.asarray(v, dtype=float), (2 * k,))
                     for v in expr.value_and_partial(P.lagrangian, "z", bind))
        else:
            A, Lz = (ends(col) for col in zpath.affine)
            L = A + Lz * z_ends
        return at_samples(zs, L), np.exp(at_samples(mus, -Lz))


def written_out_gradient(traj, zpath):
    """variational_gradient with all four weight rows multiplied out."""
    P = zpath.samples(traj)
    tables = np.array([P.table(name) for name in ("x", "dx", "xtau", "dxtau")])
    g = P.scatter(P.plan.weights * P.lam * tables)[1:-1]
    return g / zpath.lambda_b


NOT_AFFINE = ["dxtau^2 + sin(z)", "dx^2 + x*z^2 + 0.1*t"]


def lean_path_cases():
    """(problem, trajectory) for every bundle at n = 2, 4 and 100, and for L
    not affine in z, on the bundle's trajectory and a wavy sampled one."""
    for name in BUNDLE_NAMES:
        for n in (2, 4, 100):
            problem, traj, _, _ = build_bundle(name, n)
            for tr in (traj, wavy_sampled(problem), wavy_sampled(problem, 1.1, 5.0)):
                yield problem, tr
    for text in NOT_AFFINE:
        problem, traj, _, _ = build_paper(100)
        problem = replace(problem, lagrangian=expr.parse(text))
        for tr in (traj, wavy_sampled(problem)):
            yield problem, tr


class TestLeanPathBits:
    @staticmethod
    def _columns(rng, k):
        """A and B columns: random, B identically +0.0 (classical-line's
        L does not read z), zeros of both signs and an all-zero pair."""
        A, B = rng.standard_normal((2, 3 * k))
        signed = np.where(rng.random(3 * k) < 0.5, -0.0, 0.0)
        return [(A, B), (A, np.zeros(3 * k)), (A, signed), (signed, -B),
                (np.zeros(3 * k), np.zeros(3 * k))]

    @pytest.mark.parametrize("k", [1, 2, 3, 100, 2000])
    def test_in_place_stages_keep_the_bits(self, k):
        # z and mu, signs of zero included, are those of the formulas written
        # out; where B is zero, mu is +0.0 at every stop
        rng = np.random.default_rng(k)
        hs = rng.uniform(0.5, 1.5, k) / k
        for A, B in self._columns(rng, k):
            factor = integrate.IntegratingFactor(hs, B)
            for gamma in (0.5, -0.0, 0.0, -3.25):
                got = (integrate._affine_stages(factor, gamma, np.stack([A, B])), factor.mu)
                want = written_out_affine_stages(k, hs, gamma, A, B)
                assert _bits(*got) == _bits(*want)
            if not np.any(B):
                assert not np.any(np.signbit(got[1]))

    @pytest.mark.parametrize("name", BUNDLE_NAMES)
    @pytest.mark.parametrize("n", [100, 2000])
    def test_in_place_stages_on_the_bundles(self, name, n):
        problem, traj, _, _ = build_bundle(name, n)
        for tr in (traj, wavy_sampled(problem)):
            zp = integrate_z(problem, tr)
            P = zp.panels
            want = written_out_affine_stages(P.k, P.hs, problem.gamma, *zp.affine)
            assert _bits(zp.z, zp.mu) == _bits(*want)
            assert _bits(zp.lam) == _bits(np.exp(want[1]))

    def test_samples_keep_the_bits(self):
        seen = set()
        for problem, tr in lean_path_cases():
            zp = integrate_z(problem, tr)
            seen.add(zp.affine is None)
            want = written_out_samples(zp)
            P = zp.samples(tr)
            assert _bits(P.z, P.lam) == _bits(*want)
        assert seen == {True, False}

    def test_gradient_keeps_the_bits(self):
        checked = 0
        for problem, tr in lean_path_cases():
            if not isinstance(tr, SampledTrajectory):
                continue
            zp = integrate_z(problem, tr)
            got = variational_gradient(problem, tr, zp)
            assert _bits(got) == _bits(written_out_gradient(tr, zp))
            checked += 1
        assert checked == 2 * 3 * len(BUNDLE_NAMES) + len(NOT_AFFINE)

    @pytest.mark.parametrize("name", BUNDLE_NAMES)
    def test_gradient_keeps_the_bits_at_n_2000(self, name):
        problem, _, _, _ = build_bundle(name, 2000)
        tr = wavy_sampled(problem)
        zp = integrate_z(problem, tr)
        got = variational_gradient(problem, tr, zp)
        assert _bits(got) == _bits(written_out_gradient(tr, zp))

    @pytest.mark.parametrize("text", ["dxtau^2 + z", "dx^2 / 2 - x^2 / 2 - 0.2 * z", "dx^2",
                                      "x*xtau + dx*dxtau + z", "t + z"])
    def test_gradient_reads_only_the_partials_L_reads(self, monkeypatch, text):
        # one table per partial in a variable L reads, none for the others
        problem, _, _, _ = build_paper(100)
        problem = replace(problem, lagrangian=expr.parse(text))
        tr = wavy_sampled(problem)
        zp = integrate_z(problem, tr)
        zp.samples(tr)
        calls = []
        original = integrate.Samples.table
        monkeypatch.setattr(integrate.Samples, "table",
                            lambda self, name: calls.append(name) or original(self, name))
        variational_gradient(problem, tr, zp)
        partials = ("x", "dx", "xtau", "dxtau")
        reads = expr.variables_in(problem.lagrangian)
        assert calls == [v for v in partials if v in reads]


class TestIntegratingFactorRecord:
    """mu, lambda and the scan's r rows are one record per grid and column
    B = dL/dz (IntegratingFactor), kept in the plan's one-entry slot: every
    trajectory along the same B reuses it, with the bits of a fresh build."""

    TWO_B = ("dxtau^2 + z", "dxtau^2 - 0.2*z")

    @staticmethod
    def _problems(n, texts):
        problem, _, _, _ = build_paper(n)
        return [replace(problem, lagrangian=expr.parse(text)) for text in texts]

    @staticmethod
    def _run(problem, tr):
        zp = integrate_z(problem, tr)
        return _bits(zp.z, zp.mu, zp.lam, zp.samples(tr).lam,
                     variational_gradient(problem, tr, zp))

    def test_trajectories_on_a_grid_share_lambda(self):
        problem, traj, _, _ = build_paper(100)
        tr = wavy_sampled(problem)
        zp1, zp2 = integrate_z(problem, traj), integrate_z(problem, tr)
        assert zp1.lam is zp2.lam and zp1.mu is zp2.mu
        assert zp1.factor is zp2.factor is zp1.panels.plan.factor
        assert zp1.samples(traj).lam is zp2.samples(tr).lam
        with pytest.raises(ValueError, match="read-only"):
            zp1.factor.r[0, 0] = 1.0

    def test_alternating_problems_keep_the_bits_of_a_fresh_grid(self):
        # the two L differ in B, so each call replaces the other's record
        shared = self._problems(100, self.TWO_B)
        trs = [wavy_sampled(shared[0]), wavy_sampled(shared[0], 0.1, 3.0)]
        for i in range(6):
            problem, tr = shared[i % 2], trs[i // 2 % 2]
            fresh = self._problems(100, self.TWO_B)[i % 2]
            fresh_tr = SampledTrajectory(fresh.grid, tr.values)
            assert self._run(problem, tr) == self._run(fresh, fresh_tr)
            assert problem.grid.plan_slot[0].factor.key == \
                fresh.grid.plan_slot[0].factor.key

    def test_a_coefficient_that_reads_x_misses_every_call(self):
        (problem,) = self._problems(100, ["dxtau^2 + x*z/10"])
        trs = [wavy_sampled(problem), wavy_sampled(problem, 0.1, 3.0)]
        factors = []
        for i in range(4):
            zp = integrate_z(problem, trs[i % 2])
            P = zp.panels
            want = written_out_affine_stages(P.k, P.hs, problem.gamma, *zp.affine)
            assert _bits(zp.z, zp.mu) == _bits(*want)
            assert _bits(zp.lam) == _bits(np.exp(want[1]))
            assert P.plan.factor is zp.factor
            factors.append(zp.factor)
        assert len({id(f) for f in factors}) == len(factors)

    def test_threads_alternating_problems_on_one_grid(self):
        # two threads integrate the two problems in turn on the shared grid,
        # each replacing the other's record; every result is the serial one
        shared = self._problems(60, self.TWO_B)
        trs = [wavy_sampled(shared[0]), wavy_sampled(shared[0], 0.1, 3.0)]
        rounds = 200

        def case(j, i):
            return shared[(i + j) % 2], trs[j]

        want = [[self._run(*case(j, i)) for i in range(2)] for j in range(2)]
        got = [[], []]
        start = threading.Barrier(2)

        def work(j):
            start.wait()
            for i in range(rounds):
                got[j].append(self._run(*case(j, i)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(j,)) for j in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        for j in range(2):
            assert got[j] == [want[j][i % 2] for i in range(rounds)]
