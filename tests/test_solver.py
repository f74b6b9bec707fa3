import hashlib
import math
import sys

import numpy as np
import pytest

import herglotz as hg
from herglotz import errors, expr
from herglotz.bundles import BUNDLE_NAMES
from herglotz.integrate import integrate_z
from herglotz.conditions import el_residuals
from herglotz import trajectory
from herglotz.solver import (
    SolveOptions,
    _h1_band,
    _two_loop,
    fd_gradient,
    solve_direct,
    variational_gradient,
)
from herglotz.trajectory import SampledTrajectory, build_grid

from conftest import build_bundle, build_paper, wavy_sampled

E = math.e


def _bumped_exp_problem(lagrangian="exp(10*dx^2)"):
    """Convex L = exp(10*dx^2) from 0 to 2 on n=40, with the straight line
    bumped by 0.2*sin(pi*t) as an explicit seed (z = 7.0e28 there)."""
    g = build_grid(0.0, 1.0, 0.0, 40)
    problem = hg.HerglotzProblem(grid=g, gamma=0.0, beta=2.0, history="0",
                                 lagrangian=lagrangian)
    return problem, 2.0 * g.nodes + 0.2 * np.sin(np.pi * g.nodes)


def _assert_overflows_are_rejected(monkeypatch, lagrangian):
    """Five iterations from the bumped seed, with at least one trial whose
    integration raised NonFinite, to a finite z(b) below the seed's."""
    from herglotz import solver

    problem, seed = _bumped_exp_problem(lagrangian)
    seed_z = integrate_z(problem, hg.SampledTrajectory(problem.grid, seed)).z_b
    overflows = []

    def counted(*args, **kwargs):
        try:
            return integrate_z(*args, **kwargs)
        except errors.NonFinite:
            overflows.append(1)
            raise

    monkeypatch.setattr(solver, "integrate_z", counted)
    result = solve_direct(problem, SolveOptions(max_iters=5, seed_guess=seed))
    assert overflows
    assert math.isfinite(result.z_b)
    assert result.z_b <= seed_z
    assert result.iterations == 5


class TestGradients:
    def test_zero_lagrangian_gives_zero_gradient(self):
        g = build_grid(0.0, 2.0, 1.0, 12)
        problem = hg.HerglotzProblem(grid=g, gamma=0.4, beta=1.0,
                                     history="-t", lagrangian="0")
        traj = hg.seed_trajectory(problem, "linear")
        zp = integrate_z(problem, traj)
        assert np.all(variational_gradient(problem, traj, zp) == 0.0)
        assert np.max(np.abs(fd_gradient(problem, traj))) < 1e-12

    def test_matches_oracle_on_delayed_problem(self):
        problem, _, _, _ = build_paper(40)
        traj = hg.seed_trajectory(problem, "linear")
        zp = integrate_z(problem, traj)
        gv = variational_gradient(problem, traj, zp)
        gf = fd_gradient(problem, traj)
        assert np.max(np.abs(gv - gf)) / np.max(np.abs(gf)) < 1e-5

    def test_straight_line_is_stationary_for_quadratic(self):
        g = build_grid(0.0, 1.0, 0.0, 50)
        problem = hg.HerglotzProblem(grid=g, gamma=0.0, beta=1.0,
                                     history="0", lagrangian="dx^2")
        traj = SampledTrajectory(g, g.nodes.copy())
        zp = integrate_z(problem, traj)
        assert np.max(np.abs(variational_gradient(problem, traj, zp))) < 1e-8

    def test_sign_flips_across_single_node_minimum(self):
        g = build_grid(0.0, 1.0, 0.0, 2)
        problem = hg.HerglotzProblem(grid=g, gamma=0.0, beta=1.0,
                                     history="0", lagrangian="dx^2")
        grads = []
        for mid in (0.4, 0.6):
            traj = SampledTrajectory(g, np.array([0.0, mid, 1.0]))
            grads.append(fd_gradient(problem, traj)[0])
        assert grads[0] < 0.0 < grads[1]   # minimizer sits at 0.5

    @pytest.mark.parametrize("name", ["paper-s4", "herglotz-damped", "classical-line"])
    def test_matches_first_variation_at_large_n(self, name):
        from herglotz.integrate import VariationDirection, first_variation

        problem, _, _, _ = build_bundle(name, n=2000)
        traj = wavy_sampled(problem)
        zp = integrate_z(problem, traj)
        gv = variational_gradient(problem, traj, zp)
        rng = np.random.default_rng(2000)
        for _ in range(3):
            eta = rng.standard_normal(problem.grid.n - 1)
            fv = first_variation(problem, traj, zp,
                                 VariationDirection.from_free(problem.grid, eta))
            assert abs(gv @ eta - fv) <= 1e-9 * np.sum(np.abs(gv * eta))

    @pytest.mark.parametrize("name, walked", [
        ("paper-s4", ["dxtau"]), ("herglotz-damped", ["x", "dx"]), ("classical-line", ["dx"])])
    def test_walks_l_once_per_partial_it_reads(self, monkeypatch, name, walked):
        # of x, dx, xtau and dxtau, only the partials L reads are walked over
        # the panel samples; the others are exact zeros
        problem, _, _, _ = build_bundle(name, n=100)
        traj = wavy_sampled(problem)
        zp = integrate_z(problem, traj)
        walks = []
        for fn in ("evaluate", "partial"):
            def counted(e, *args, original=getattr(expr, fn), fn=fn):
                if e is problem.lagrangian:
                    walks.append(fn if fn == "evaluate" else args[0])
                return original(e, *args)
            monkeypatch.setattr(expr, fn, counted)
        variational_gradient(problem, traj, zp)
        assert walks == walked

    def test_tail_entries_small_on_reference_problem(self):
        # free nodes past b - tau barely matter: only the weak spline
        # coupling back into [a, b - tau] keeps their entries nonzero
        problem, _, _, _ = build_paper(40)
        g = problem.grid
        traj = hg.seed_trajectory(problem, "linear")
        zp = integrate_z(problem, traj)
        gv = variational_gradient(problem, traj, zp)
        free_t = g.nodes[list(g.free_indices)]
        tail = np.abs(gv[free_t > g.b - g.tau + 2 * g.h])
        assert np.max(tail) < 1e-2 * np.max(np.abs(gv))


class TestH1Metric:
    """The metric that seeds L-BFGS weighs the free nodes by the integrating
    factor where x' enters z(b), so L-BFGS need not learn that weight."""

    @pytest.mark.parametrize("n", [100, 2000])
    def test_herglotz_damped_iterations(self, n):
        problem, _, _, opts = build_bundle("herglotz-damped", n=n)
        result = solve_direct(problem, opts)
        assert result.converged and result.iterations <= 8

    @pytest.mark.parametrize("lagrangian, tau", [("dx^2", 0.0), ("dx^2 + x*xtau", 0.5)])
    def test_z_free_lagrangian_reading_dx_gives_the_uniform_band(self, lagrangian, tau):
        g = build_grid(0.0, 2.0, tau, 16)
        problem = hg.HerglotzProblem(grid=g, gamma=0.3, beta=1.0, history="1 - t",
                                     lagrangian=lagrangian)
        traj = wavy_sampled(problem)
        band = _h1_band(problem, integrate_z(problem, traj))
        want = np.empty((3, g.n - 1))
        want[0] = want[2] = -1.0 / g.h
        want[1] = 2.0 / g.h
        assert band.tobytes() == want.tobytes()

    def test_paper_s4_weights_follow_the_delayed_lambda(self):
        # L = dxtau^2 + z: lambda = e^-t, so W(s) = lambda(s + 1) / max = e^-s
        # on [0, 1] and the floor on (1, 2], where x' does not enter z(b)
        problem, _, _, _ = build_bundle("paper-s4", n=40)
        g = problem.grid
        band = _h1_band(problem, integrate_z(problem, hg.seed_trajectory(problem)))
        s = g.main_nodes
        W = np.where(s <= 1.0 + 1e-12, np.exp(-s), 1e-3)
        w = 0.5 * (W[:-1] + W[1:])
        np.testing.assert_allclose(-band[2] * g.h, w[1:], rtol=1e-9)
        np.testing.assert_allclose(band[1] * g.h, w[:-1] + w[1:], rtol=1e-9)

    def test_classical_line_iterates_unchanged(self):
        # lambda = 1 and L = dx^2: the weighted metric is tridiag(-1, 2, -1)/h
        # to the bit, so the solve keeps that metric's iterates exactly
        problem, _, _, opts = build_bundle("classical-line", n=100)
        result = solve_direct(problem, opts)
        assert result.iterations == 9 and result.z_b == 1.0000000000000004
        assert result.objective_history == [
            110.94555433772312, 2.6470387178225243, 1.0268246178408333,
            1.000249604619469, 1.0000060893392475, 1.0000000346604097,
            1.000000002144962, 1.0000000000076947, 1.0000000000004277,
            1.0000000000000004]
        digest = hashlib.sha256(result.trajectory.values.tobytes()).hexdigest()
        assert digest == "7244e44c03142d496ba629ec647c7e50bafa6ac4a0a4acf44c9f0565d5fb8130"


def written_out_two_loop(grad, s_list, y_list, kinv):
    """The two-loop recursion with every y's formed where it is used."""
    q = grad.copy()
    alphas = []
    for s, y in zip(reversed(s_list), reversed(y_list)):
        a = (s @ q) / (y @ s)
        alphas.append(a)
        q -= a * y
    q = kinv(q)
    if s_list:
        y = y_list[-1]
        q *= (s_list[-1] @ y) / (y @ kinv(y))
    else:
        q /= max(1.0, float(np.max(np.abs(q))))
    for (s, y), a in zip(zip(s_list, y_list), reversed(alphas)):
        b = (y @ q) / (y @ s)
        q += (a - b) * s
    return q


class TestHoistedInvariants:
    """What a solve computes once: the y's of each L-BFGS pair, the spline
    geometry its trials share, and the factors of its fixed tridiagonal
    matrices."""

    @pytest.mark.parametrize("n", [1, 3, 99, 1999])
    def test_stored_ys_keeps_the_bits(self, n):
        rng = np.random.default_rng(n)
        band = np.empty((3, n))
        band[0] = band[2] = -rng.uniform(0.5, 1.5, n)
        band[1] = 4.0

        kinv = trajectory.Tridiagonal(band).solve

        for scale in (1e-150, 1.0, 1e150):
            grad = rng.standard_normal(n) * scale
            s_list = [rng.standard_normal(n) * scale for _ in range(10)]
            y_list = [rng.standard_normal(n) for _ in range(10)]
            for used in (0, 1, 10):
                pairs = [(s, y, y @ s) for s, y in zip(s_list[:used], y_list[:used])]
                want = written_out_two_loop(grad, s_list[:used], y_list[:used], kinv)
                assert _two_loop(grad, pairs, kinv).tobytes() == want.tobytes()

    def test_norm_is_the_square_root_of_the_dot(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 7, 100, 2000):
            for e in (-200, -3, 0, 3, 200):
                v = rng.standard_normal(n) * 10.0 ** e
                with np.errstate(over="ignore", under="ignore"):
                    assert math.sqrt(v @ v) == np.linalg.norm(v)

    @pytest.mark.parametrize("name", ["paper-s4", "herglotz-damped", "classical-line"])
    def test_slope_bands_do_not_grow_with_the_iterations(self, monkeypatch, name):
        # per solve on a fresh grid, one slope matrix on the n + 1 main nodes
        # and one on the m + 1 history nodes: the grid's spline geometry,
        # which the seed, every trial and the adjoint's band share
        sizes = []
        original = trajectory._slope_band
        monkeypatch.setattr(trajectory, "_slope_band",
                            lambda x, bc: sizes.append(len(x)) or original(x, bc))
        counts = []
        for max_iters in (1, 2, 1000):
            problem, _, _, opts = build_bundle(name, n=100)
            sizes.clear()
            result = solve_direct(problem, SolveOptions(
                max_iters=max_iters, seed_guess=opts.seed_guess))
            counts.append((result.iterations, sorted(sizes)))
        g = problem.grid
        want = sorted([g.n + 1] + ([g.m + 1] if g.m else []))
        assert [c[1] for c in counts] == [want] * 3
        assert counts[0][0] == 1 and counts[2][0] > 2

    @pytest.mark.parametrize("name", ["paper-s4", "herglotz-damped", "classical-line"])
    def test_fixed_matrices_are_factored_once(self, monkeypatch, name):
        # per solve on a fresh grid, one gttrf per slope matrix of a segment,
        # one for the panel plan's transposed matrix and one for the H1
        # metric; every later solve with them is a gttrs
        sizes = []
        dgttrf, dgttrs = trajectory._lapack()
        monkeypatch.setattr(trajectory, "_lapack", lambda: (
            lambda dl, d, du: sizes.append(len(d)) or dgttrf(dl, d, du), dgttrs))
        counts = []
        for max_iters in (1, 2, 1000):
            problem, _, _, opts = build_bundle(name, n=100)
            sizes.clear()
            result = solve_direct(problem, SolveOptions(
                max_iters=max_iters, seed_guess=opts.seed_guess))
            counts.append((result.iterations, sorted(sizes)))
        g = problem.grid
        want = sorted([g.n + 1, g.n + 1, g.n - 1] + ([g.m + 1] if g.m + 1 > 2 else []))
        assert [c[1] for c in counts] == [want] * 3
        assert counts[0][0] == 1 and counts[2][0] > 2

    @pytest.mark.parametrize("name", BUNDLE_NAMES)
    def test_gradient_seeds_its_variable_without_a_ones_array(self, monkeypatch, name):
        # the seed's tangent is the float 1.0, which broadcasts like ones
        problem, _, _, opts = build_bundle(name, n=100)
        traj = hg.seed_trajectory(problem, opts.seed_guess)
        zp = integrate_z(problem, traj)
        built = []
        original = np.ones_like

        def counted(*args, **kwargs):
            if sys._getframe(1).f_code is expr._dual.__code__:
                built.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np, "ones_like", counted)
        grad = variational_gradient(problem, traj, zp)
        assert built == [] and len(grad) == problem.grid.n - 1


class TestSolveDirect:
    def test_delayed_reference_problem(self):
        problem, _, _, opts = build_bundle("paper-s4", n=100)
        result = solve_direct(problem, opts)
        assert result.converged
        assert abs(result.z_b - (E * E - E)) < 1e-4
        g = problem.grid
        in_flat = (g.nodes >= -1e-12) & (g.nodes <= 1.0 + 1e-12)
        assert np.max(np.abs(result.trajectory.values[in_flat])) < 1e-3

    def test_classical_line_from_zero_seed(self):
        problem, _, _, opts = build_bundle("classical-line", n=100)
        result = solve_direct(problem, opts)
        assert result.converged
        assert abs(result.z_b - 1.0) < 1e-4
        assert np.max(np.abs(result.trajectory.values - problem.grid.nodes)) < 1e-3

    def test_one_free_node(self):
        # n = 2 leaves one free node: the H1 metric is a 1x1 system
        problem, _, _, opts = build_bundle("classical-line", n=2)
        assert opts.seed_guess == "zero"
        result = solve_direct(problem, opts)
        assert result.converged and result.iterations >= 1
        assert abs(result.trajectory.values[1] - problem.grid.nodes[1]) < 1e-6

    def test_stationary_seed_converges_immediately(self):
        problem, _, _, _ = build_bundle("classical-line", n=60)
        result = solve_direct(problem, SolveOptions(seed_guess="linear"))
        assert result.converged
        assert result.iterations == 0
        assert result.final_grad_norm <= 1e-6

    def test_monotone_objective_history(self):
        problem, _, _, opts = build_bundle("paper-s4", n=40)
        result = solve_direct(problem, opts)
        hist = np.array(result.objective_history)
        assert np.all(np.diff(hist) <= 1e-14)

    def test_result_carries_the_final_zpath(self):
        problem, _, _, opts = build_bundle("paper-s4", n=40)
        result = solve_direct(problem, opts)
        again = integrate_z(problem, result.trajectory)
        assert result.zpath.samples(result.trajectory) is not None
        assert result.zpath.z_b == result.z_b
        assert result.zpath.csv() == again.csv()

    def test_fixed_nodes_preserved_bit_for_bit(self):
        problem, _, _, opts = build_bundle("paper-s4", n=40)
        seed = hg.seed_trajectory(problem, "linear")
        result = solve_direct(problem, opts)
        g = problem.grid
        assert np.array_equal(result.trajectory.values[: g.m + 1],
                              seed.values[: g.m + 1])
        assert result.trajectory.values[-1] == seed.values[-1]

    def test_converged_flag_is_honest(self):
        problem, _, _, _ = build_bundle("paper-s4", n=40)
        starved = solve_direct(problem, SolveOptions(max_iters=2))
        assert not starved.converged
        assert starved.stop_reason == "max_iters"
        assert starved.iterations == 2

    def test_failed_line_search_is_reported(self, monkeypatch):
        # sixty trials shrinking by 0.9 from a step of 1e6 all overshoot
        from herglotz import solver

        monkeypatch.setattr(solver, "_INITIAL_STEP", 1e6)
        monkeypatch.setattr(solver, "_SHRINK", 0.9)
        problem, _, _, opts = build_bundle("classical-line", n=20)
        result = solve_direct(problem, opts)
        assert result.stop_reason == "line_search_failed"
        assert not result.converged
        assert result.iterations == 0

    def test_stagnation_ends_the_line_search(self):
        # an unreachable tolerance: once f stops changing, no trial decreases
        # it strictly, so the solve stops instead of running to the cap
        problem, _, _, opts = build_bundle("classical-line", n=20)
        result = solve_direct(problem, SolveOptions(grad_tol=1e-300,
                                                    seed_guess=opts.seed_guess))
        assert result.stop_reason == "line_search_failed"
        assert result.iterations < 1000
        assert all(b < a for a, b in zip(result.objective_history,
                                         result.objective_history[1:]))

    def test_weak_residual_small_at_convergence(self):
        from herglotz.conditions import el_residuals, weak_form_values

        problem, _, _, opts = build_bundle("classical-line", n=60)
        result = solve_direct(problem, opts)
        zp = integrate_z(problem, result.trajectory)
        r1, r2 = el_residuals(problem, result.trajectory, zp)
        weak = weak_form_values(problem, result.trajectory, zp, r1, r2)
        assert np.max(np.abs(weak)) <= 10.0 * opts.grad_tol

    def test_non_finite_objective_aborts_with_diagnostic(self):
        g = build_grid(0.0, 1.0, 0.0, 10)
        problem = hg.HerglotzProblem(grid=g, gamma=0.0, beta=1.0, history="0",
                                     lagrangian="exp(exp(exp(5 + x)))")
        with pytest.raises(errors.NonFinite, match="iteration"):
            solve_direct(problem, SolveOptions(seed_guess="linear"))

    def test_overflowing_trial_is_a_rejected_step(self, monkeypatch):
        # from the bumped seed some trial overflows exp(10*dx^2); backtracking
        # must shrink past it instead of aborting the solve
        _assert_overflows_are_rejected(monkeypatch, "exp(10*dx^2)")

    def test_overflow_inside_a_step_is_a_rejected_step(self, monkeypatch):
        # with a z term the overflow reaches z inside an RK4 step, at a stage
        _assert_overflows_are_rejected(monkeypatch, "exp(10*dx^2) + 0.001*z")

    def test_first_step_is_scaled(self):
        # z = 7e28 at the seed: a unit step along the raw direction overflows
        # for every one of the sixty halvings; the scaled first step reaches
        # the straight line, whose z = e^40 is the minimum
        problem, seed = _bumped_exp_problem()
        result = solve_direct(problem, SolveOptions(seed_guess=seed))
        assert result.iterations > 0
        assert abs(result.z_b - math.exp(40.0)) <= 1e-6 * math.exp(40.0)

    def test_iterations_do_not_grow_with_n(self):
        # the lambda-weighted metric solves paper-s4 in a few iterations at
        # every n, and each extremal passes the delayed EL checks at 1e-4
        iterations = []
        for n in (100, 400, 2000, 8000):
            problem, _, _, opts = build_bundle("paper-s4", n=n)
            result = solve_direct(problem, opts)
            assert result.converged
            iterations.append(result.iterations)
            el1, el2 = el_residuals(problem, result.trajectory, result.zpath)
            assert el1.passed and el2.passed
        assert max(iterations) <= 10
        assert max(iterations) - min(iterations) <= 5

    def test_option_validation(self):
        for bad in (-1.0, 0, float("inf"), float("nan"), True, "1", [1]):
            with pytest.raises(errors.BadInterval, match="grad_tol"):
                SolveOptions(grad_tol=bad)
        for bad in (2.5, float("nan"), -1, True, "10"):
            with pytest.raises(errors.BadInterval, match="max_iters"):
                SolveOptions(max_iters=bad)
        assert SolveOptions(max_iters=np.int64(3)).max_iters == 3
        assert SolveOptions(grad_tol=np.float32(1e-3)).grad_tol == np.float32(1e-3)
        assert SolveOptions(grad_tol=1).grad_tol == 1

    def test_explicit_seed_flows_through(self):
        problem, _, _, _ = build_bundle("classical-line", n=20)
        seed = hg.seed_trajectory(problem, "linear").values.copy()
        result = solve_direct(problem, SolveOptions(seed_guess=seed))
        assert result.converged

    def test_summary_fields(self):
        problem, _, _, _ = build_bundle("classical-line", n=20)
        s = solve_direct(problem, SolveOptions()).summary()
        assert set(s) == {"z_b", "iterations", "final_grad_norm", "converged",
                          "stop_reason", "objective_history"}
        assert s["stop_reason"] == "converged"
