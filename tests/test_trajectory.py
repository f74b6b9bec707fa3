import csv
import io
import os
import stat
from math import perm

import numpy as np
import pytest
from scipy.interpolate import CubicSpline as ScipyCubicSpline
from scipy.linalg import solve_banded

import herglotz as hg
from herglotz import errors, reportio, trajectory
from herglotz.reportio import csv_text, write_text_atomic
from herglotz.trajectory import (
    CubicSpline,
    PiecewiseTrajectory,
    SampledTrajectory,
    Tridiagonal,
    VariationDirection,
    _slope_band,
    adjoint_band,
    build_adjoint,
    build_grid,
    perturb,
    sampled_from_csv,
    seed_trajectory,
    trajectory_csv,
)

from conftest import build_paper, one_sided_piece_read, per_call_eval, unit_direction

U = 2.0 ** -53


class TestGrid:
    def test_delay_aligned_grid(self):
        g = build_grid(0.0, 2.0, 1.0, 4)
        assert g.h == 0.5
        assert g.m == 2
        np.testing.assert_array_equal(g.nodes, [-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])
        assert g.nodes[g.m] == 0.0
        assert g.nodes[-1] == 2.0

    def test_misaligned_delay(self):
        with pytest.raises(errors.DelayNotAligned):
            build_grid(0.0, 2.0, 1.0, 5)

    def test_zero_delay(self):
        g = build_grid(0.0, 1.0, 0.0, 10)
        assert g.m == 0
        np.testing.assert_allclose(g.nodes, np.linspace(0.0, 1.0, 11), atol=1e-15)

    @pytest.mark.parametrize("args", [
        (1.0, 0.0, 0.0, 4),    # a >= b
        (0.0, 1.0, -0.5, 4),   # negative delay
        (0.0, 1.0, 1.0, 4),    # tau >= b - a
        (0.0, 1.0, 0.0, 1),    # n too small
    ])
    def test_bad_intervals(self, args):
        with pytest.raises(errors.BadInterval):
            build_grid(*args)

    def test_free_indices(self):
        g = build_grid(0.0, 2.0, 1.0, 4)
        assert list(g.free_indices) == [3, 4, 5]

    def test_nodes_strictly_increasing(self):
        for args in ((0.0, 2.0, 1.0, 1000), (-0.3, 0.9, 0.4, 30), (0.0, 1.0, 0.0, 7)):
            g = build_grid(*args)
            assert np.all(np.diff(g.nodes) > 0)
            assert g.nodes[g.m] == args[0]
            assert g.nodes[-1] == args[1]


class TestPiecewise:
    def test_second_derivative_comes_from_the_shared_stencil(self, monkeypatch):
        # eval_many and ddx_at_nodes both take x'' from stencil_ddx, one call
        # per piece they read, and compute none of their own
        _, traj, _, _ = build_paper(40)
        g = traj.grid
        calls = []

        def stub(e, t0, t1, h, ts):
            calls.append((t0, t1, len(ts)))
            return np.full(len(ts), 7.0)

        monkeypatch.setattr(trajectory, "stencil_ddx", stub)
        _, _, ddx = traj.eval_many(g.nodes)
        assert np.all(ddx == 7.0) and len(calls) == len(traj.pieces)
        calls.clear()
        assert np.all(traj.ddx_at_nodes(g.n + 1) == 7.0)
        # nodes 0 .. n of [-1, 2] end at the kink t = 1, so each piece is
        # read once, the third at its first node only
        assert [c[:2] for c in calls] == [p[:2] for p in traj.pieces]
        assert [c[2] for c in calls] == [g.m, g.m, 1]

    def test_reference_extremal_on_flat_piece(self):
        _, traj, _, _ = build_paper(40)
        assert traj.eval(0.5) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)

    def test_reference_extremal_on_history(self):
        _, traj, _, _ = build_paper(40)
        x, dx, ddx = traj.eval(-0.5)
        assert (x, dx) == (0.5, -1.0)
        assert abs(ddx) < 1e-9

    def test_right_limit_at_breakpoint(self):
        _, traj, _, _ = build_paper(40)
        x0, dx0, _ = traj.eval(0.0)
        assert x0 == 0.0 and dx0 == 0.0          # flat piece wins at the kink
        (xl,), (dxl,) = one_sided_piece_read(traj, [0.0], "left")
        assert xl == 0.0 and dxl == -1.0         # history slope from the left

    def test_breakpoint_value_matches_limit_from_above(self):
        _, traj, _, _ = build_paper(40)
        for rho in traj.grid.nodes[list(traj.kinks)]:
            x_at, _, _ = traj.eval(rho)
            x_above, _, _ = traj.eval(rho + 1e-10)
            assert abs(x_at - x_above) < 1e-9

    def test_second_derivative_of_cubic(self):
        g = build_grid(0.0, 1.0, 0.0, 20)
        traj = PiecewiseTrajectory(g, [(0.0, 1.0, "t^3")])
        for t in (0.0, 0.31, 0.7, 1.0):
            _, dx, ddx = traj.eval(t)
            assert dx == pytest.approx(3 * t * t, abs=1e-12)
            assert ddx == pytest.approx(6 * t, abs=1e-9)

    def test_second_derivative_at_piece_ends(self):
        # x' = 5t^4 is quartic, so the 5-point rows are exact up to round-off;
        # the windows at the ends of the pieces stay in them
        g = build_grid(0.0, 1.0, 0.0, 10)
        traj = PiecewiseTrajectory(g, [(0.0, 0.1, "t^5"), (0.1, 1.0, "t^5")])
        slack = 5e-10   # inside the domain slack 1e-9 (b - a)
        for t in (-slack, 0.0, 0.005, 0.05, 0.099, 0.1, 0.5, 1.0, 1.0 + slack):
            _, _, ddx = traj.eval_many(np.array([t]))
            assert ddx[0] == pytest.approx(20 * t ** 3, abs=1e-9)

    def test_gap_detected(self):
        g = build_grid(0.0, 1.0, 0.0, 4)
        with pytest.raises(errors.InvalidTrajectory):
            PiecewiseTrajectory(g, [(0.0, 0.4, "t"), (0.6, 1.0, "t")])

    def test_value_jump_detected(self):
        g = build_grid(0.0, 1.0, 0.0, 4)
        with pytest.raises(errors.InvalidTrajectory):
            PiecewiseTrajectory(g, [(0.0, 0.5, "t"), (0.5, 1.0, "t + 1")])

    def test_coverage_required(self):
        g = build_grid(0.0, 2.0, 1.0, 4)
        with pytest.raises(errors.InvalidTrajectory):
            PiecewiseTrajectory(g, [(0.0, 2.0, "t")])  # misses the history

    def test_only_t_allowed(self):
        g = build_grid(0.0, 1.0, 0.0, 4)
        with pytest.raises(errors.InvalidTrajectory):
            PiecewiseTrajectory(g, [(0.0, 1.0, "t + x")])

    def test_out_of_domain(self):
        _, traj, _, _ = build_paper(40)
        with pytest.raises(errors.OutOfDomain):
            traj.eval(2.5)
        with pytest.raises(errors.OutOfDomain):
            traj.eval(-1.5)

    def test_nan_time_is_out_of_domain(self):
        _, traj, _, _ = build_paper(40)
        with pytest.raises(errors.OutOfDomain, match="nan"):
            traj.eval_many(np.array([0.5, np.nan]))


class TestSampled:
    def test_derivative_of_sampled_parabola(self):
        g = build_grid(0.0, 1.0, 0.0, 100)
        traj = SampledTrajectory(g, g.nodes ** 2)
        _, dx, _ = traj.eval(0.5)
        assert abs(dx - 1.0) < 1e-4   # exact derivative of t^2 at 0.5 is 1

    def test_nan_time_is_out_of_domain(self):
        g = build_grid(0.0, 2.0, 1.0, 20)
        traj = SampledTrajectory(g, g.nodes ** 2)
        with pytest.raises(errors.OutOfDomain, match="nan"):
            traj.eval_many(np.array([0.5, np.nan]))

    def test_node_values_returned_exactly(self):
        g = build_grid(0.0, 2.0, 1.0, 20)
        rng = np.random.default_rng(5)
        vals = rng.normal(size=len(g.nodes))
        traj = SampledTrajectory(g, vals)
        x, _, _ = traj.eval_many(g.nodes)
        np.testing.assert_array_equal(x, vals)

    def test_spline_interpolation_order_on_sine(self):
        errs = []
        for n in (50, 100):
            g = build_grid(0.0, 1.0, 0.0, n)
            traj = SampledTrajectory(g, np.sin(g.nodes))
            ts = np.linspace(0.0, 1.0, 777)
            x, _, _ = traj.eval_many(ts)
            errs.append(np.max(np.abs(x - np.sin(ts))))
        assert errs[0] / errs[1] > 3.5   # at least second order in h

    def test_split_at_history_junction(self):
        problem, _, _, _ = build_paper(20)
        traj = seed_trajectory(problem, "linear")
        assert traj.kinks == (problem.grid.m,)
        _, (dx_left,) = per_call_eval(traj, np.array([0.0]), "left")
        _, dx_right, _ = traj.eval(0.0)
        assert dx_left == pytest.approx(-1.0, abs=1e-12)   # history slope
        assert dx_right == pytest.approx(0.5, abs=1e-12)   # linear seed slope

    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_trajectories_on_one_grid_share_its_slope_matrices(self, monkeypatch, tau):
        # one slope matrix per segment of the grid, whatever is built on it
        sizes = []
        monkeypatch.setattr("herglotz.trajectory._slope_band",
                            lambda x, bc: sizes.append(len(x)) or _slope_band(x, bc))
        g = build_grid(0.0, 2.0, tau, 40)
        rng = np.random.default_rng(3)
        for _ in range(4):
            SampledTrajectory(g, rng.normal(size=len(g.nodes)))
            VariationDirection(g, rng.normal(size=g.n + 1))
        assert sorted(sizes) == sorted([g.n + 1] + ([g.m + 1] if g.m else []))

    def test_no_junction_without_delay(self):
        g = build_grid(0.0, 1.0, 0.0, 10)
        traj = SampledTrajectory(g, g.nodes)
        assert traj.kinks == ()


class TestCubicSpline:
    @pytest.mark.parametrize("n", [*range(2, 12), 50, 101, 401, 2001])
    def test_bitwise_equal_to_scipy(self, n):
        # the coefficients are scipy's, bit for bit; scipy's dense 3-point
        # parabola and 2-point line are not carried over: below 4 nodes
        # not-a-knot falls back to natural ends. A read runs Horner's rule
        # where scipy sums by powers, so the two agree within 8 u of the
        # magnitude of the piece's terms
        rng = np.random.default_rng(n)
        for x in (np.linspace(-0.3, 1.7, n), np.sort(rng.uniform(-1.0, 2.0, n))):
            span = x[-1] - x[0]
            ts = np.concatenate([x, [x[0] - 1e-3 * span, x[-1] + 1e-3 * span],
                                 rng.uniform(x[0], x[-1], 40)])
            i = np.clip(np.searchsorted(x, ts, side="right") - 1, 0, n - 2)
            z = ts - x[i]
            for bc in ("natural", "not-a-knot"):
                ref_bc = bc if n >= 4 else "natural"
                y = rng.normal(size=n)
                ours, ref = CubicSpline(x, y, bc), ScipyCubicSpline(x, y, bc_type=ref_bc)
                np.testing.assert_array_equal(ours.c, ref.c, strict=True)
                together = ours.read(ts, (0, 1, 2))
                for nu in (0, 1, 2):
                    want = ref(ts, nu)
                    if nu == 0:
                        want[:n] = y    # a read at a node returns the stored value
                    terms = sum(np.abs(perm(k, nu) * ours.c[3 - k, i] * z ** (k - nu))
                                for k in range(nu, 4))
                    np.testing.assert_array_equal(together[nu], ours(ts, nu), strict=True)
                    assert np.all(np.abs(together[nu] - want) <= 8 * U * terms)

    def test_several_orders_read_as_separate_reads(self):
        rng = np.random.default_rng(5)
        x = np.sort(rng.uniform(-1.0, 2.0, 9))
        y = rng.normal(size=9)
        span = x[-1] - x[0]
        ts = np.concatenate([x, [x[0] - 1e-3 * span, x[-1] + 1e-3 * span],
                             rng.uniform(x[0], x[-1], 30)])
        for bc in ("natural", "not-a-knot"):
            spline = CubicSpline(x, y, bc)
            for nus in ((0, 1, 2), (2, 1, 0), (0, 1), (1, 2), (0, 2)):
                got = spline.read(ts, nus)
                assert len(got) == len(nus)
                for nu, values in zip(nus, got):
                    np.testing.assert_array_equal(values, spline(ts, nu), strict=True)

    def test_node_read_keeps_a_stored_negative_zero(self):
        x = np.array([0.0, 0.5, 1.0, 2.0, 2.5])
        y = np.array([-0.0, 1.0, -0.0, 3.0, -0.0])
        got = CubicSpline(x, y, "not-a-knot")(x)
        assert list(np.signbit(got)) == [True, False, True, False, True]


class TestSolveTridiagonal:
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 2001])
    def test_factored_solve_is_bitwise_equal_to_solve_banded(self, n):
        # gttrf once, then gttrs per solve; at n <= 2 behind an identity head
        rng = np.random.default_rng(n)
        band = rng.uniform(-1.0, 1.0, (3, n))
        band[1] += 3.0 * np.sign(band[1])
        kept = band.copy()
        matrix = Tridiagonal(band)
        for rhs in (rng.normal(size=n), rng.normal(size=(n, 2))):
            before = rhs.copy()
            for _ in range(2):
                got = matrix.solve(rhs)
                np.testing.assert_array_equal(got, solve_banded((1, 1), band, rhs), strict=True)
            assert rhs.tobytes() == before.tobytes()
        assert band.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("n", [1, 2])
    def test_small_systems_keep_gtsv_bits_when_pivoting(self, n):
        # no diagonal dominance, so most 2-row systems pivot, and a signed
        # zero in the right-hand side keeps its sign, also where a zero
        # leading entry makes the eliminated right-hand side -0.0
        rng = np.random.default_rng(10 + n)
        for i in range(500):
            band = rng.normal(size=(3, n))
            if n == 2 and i % 2:
                band[1, 0] = 0.0
            rhs = rng.normal(size=(n, 2))
            rhs[rng.integers(n), 0] = -0.0
            got = Tridiagonal(band).solve(rhs)
            assert got.tobytes() == solve_banded((1, 1), band, rhs).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_singular_band_raises_when_factored(self, n):
        band = np.ones((3, n))
        band[:, 0] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            Tridiagonal(band).solve(np.ones(n))


class TestSplineAdjoint:
    @pytest.mark.parametrize("n", [2, 3, 4, 17])
    def test_equals_the_forward_spline_on_unit_vectors(self, n):
        # at small n the end rows carry most of the weights
        rng = np.random.default_rng(n)
        x = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2.0, n - 2)), [2.0]])
        ts = np.concatenate([[0.0, 2.0], rng.uniform(0.0, 2.0, 25)])
        wv, wd = rng.normal(size=(2, len(ts)))

        def paired(y):
            s = CubicSpline(x, y, "natural")
            return np.sum(wv * s(ts) + wd * s(ts, 1))

        brute = np.array([paired(e) for e in np.eye(n)])
        # the weights of the coefficients of z^p, summed per piece: a value
        # read weighs z^p, a slope read p z^(p-1)
        i = np.clip(np.searchsorted(x, ts, side="right") - 1, 0, n - 2)
        z = ts - x[i]
        gc = [np.bincount(i, w, n - 1) for w in (
            wv, z * wv + wd, z * (z * wv + 2.0 * wd), z * z * (z * wv + 3.0 * wd))]
        adjoint = Tridiagonal(adjoint_band(_slope_band(x, "natural")[0]))
        g = build_adjoint(np.diff(x), adjoint, gc)
        np.testing.assert_allclose(g, brute, rtol=0, atol=1e-13 * np.max(np.abs(brute)))
        y = rng.normal(size=n)
        assert g @ y == pytest.approx(paired(y), rel=1e-13)


class TestPerturb:
    def test_zero_delta_keeps_values(self):
        problem, _, _, _ = build_paper(20)
        traj = seed_trajectory(problem, "linear")
        new = perturb(traj, 25, 0.0)
        np.testing.assert_array_equal(new.values, traj.values)

    def test_perturb_roundtrip_restores(self):
        problem, _, _, _ = build_paper(20)
        traj = seed_trajectory(problem, "linear")
        back = perturb(perturb(traj, 15, 1e-3), 15, -1e-3)
        assert np.max(np.abs(back.values - traj.values)) < 1e-15

    def test_pinned_nodes_rejected(self):
        problem, _, _, _ = build_paper(20)
        traj = seed_trajectory(problem, "linear")
        g = problem.grid
        for idx in (0, g.m, g.n + g.m):
            with pytest.raises(errors.FixedNode):
                perturb(traj, idx, 1e-3)

    def test_history_immutable(self):
        problem, _, _, _ = build_paper(20)
        traj = seed_trajectory(problem, "linear")
        g = problem.grid
        new = perturb(traj, g.m + 3, 0.2)
        np.testing.assert_array_equal(new.values[: g.m + 1], traj.values[: g.m + 1])

    @pytest.mark.parametrize("tau", [1.0, 0.0], ids=["m4", "m0"])
    def test_unit_direction_is_the_perturbation(self, tau):
        # perturb(traj, j, 1) - traj is unit_direction(g, j), value and slope,
        # on the history, at t = a from both sides, inside [a, b] and at b
        g = build_grid(0.0, 2.0, tau, 8)
        rng = np.random.default_rng(5)
        traj = SampledTrajectory(g, rng.normal(size=len(g.nodes)))
        hist = np.concatenate([g.nodes[: g.m + 1],
                               rng.uniform(g.nodes[0], g.a, 10 if g.m else 0)])
        inner = np.concatenate([g.main_nodes[1:-1], rng.uniform(g.a, g.b, 20)])
        reads = [(hist, "right"), (hist, "left"), ([g.a], "left"), ([g.a], "right"),
                 (inner, "right"), (inner, "left"), ([g.b], "left")]
        for j in g.free_indices:
            moved, eta = perturb(traj, j, 1.0), unit_direction(g, j)
            for ts, side in reads:
                ts = np.asarray(ts, dtype=float)
                for new, old, want in zip(per_call_eval(moved, ts, side),
                                          per_call_eval(traj, ts, side),
                                          per_call_eval(eta, ts, side)):
                    np.testing.assert_allclose(new - old, want, rtol=0, atol=1e-12)

    def test_direction_reads_outside_the_grid_raise(self):
        eta = unit_direction(build_grid(0.0, 2.0, 1.0, 8), 6)
        for t in (-1.5, 2.5, np.nan):
            with pytest.raises(errors.OutOfDomain):
                eta.eval_many(np.array([t]))

    def test_raising_objective_when_leaving_flat_extremal(self):
        # nudging the flat segment of the reference extremal costs value
        problem, _, _, _ = build_paper(40)
        flat = seed_trajectory(problem, "linear").values.copy()
        g = problem.grid
        flat[g.m: g.m + g.n // 2 + 1] = 0.0   # x = 0 on [0, 1]
        traj = SampledTrajectory(g, flat)
        base = hg.integrate_z(problem, traj).z_b
        bumped = hg.integrate_z(problem, perturb(traj, g.m + 5, 1e-3)).z_b
        assert bumped > base


class TestProblem:
    def test_history_must_use_only_t(self):
        g = build_grid(0.0, 2.0, 1.0, 4)
        with pytest.raises(errors.InvalidTrajectory):
            hg.HerglotzProblem(grid=g, gamma=0.0, beta=1.0, history="-t + x",
                               lagrangian="z")

    def test_lagrangian_may_not_use_eps(self):
        g = build_grid(0.0, 2.0, 1.0, 4)
        with pytest.raises(errors.UnknownIdentifier):
            hg.HerglotzProblem(grid=g, gamma=0.0, beta=1.0, history="-t",
                               lagrangian="z + eps")

    def test_history_values(self):
        problem, _, _, _ = build_paper(4)
        np.testing.assert_allclose(problem.history_values(), [1.0, 0.5, 0.0], atol=1e-15)

    def test_seed_linear_and_zero(self):
        problem, _, _, _ = build_paper(4)
        lin = seed_trajectory(problem, "linear")
        assert lin.values[-1] == problem.beta
        zero = seed_trajectory(problem, "zero")
        g = problem.grid
        assert np.all(zero.values[g.m + 1: g.n + g.m] == 0.0)
        assert zero.values[-1] == problem.beta

    def test_explicit_seed_validated(self):
        problem, _, _, _ = build_paper(4)
        good = seed_trajectory(problem, "linear").values.copy()
        assert np.array_equal(seed_trajectory(problem, good).values, good)
        bad = good.copy()
        bad[0] += 0.1     # history node
        with pytest.raises(errors.BadGuess):
            seed_trajectory(problem, bad)
        bad = good.copy()
        bad[-1] += 0.1    # endpoint
        with pytest.raises(errors.BadGuess):
            seed_trajectory(problem, bad)
        with pytest.raises(errors.BadGuess):
            seed_trajectory(problem, good[:-1])


class TestCsv:
    def test_roundtrip_through_file(self, tmp_path):
        problem, _, _, _ = build_paper(8)
        traj = seed_trajectory(problem, "linear")
        path = tmp_path / "traj.csv"
        write_text_atomic(path, trajectory_csv(traj))
        text = path.read_text()
        assert text.splitlines()[0] == "t,x,dx,ddx"
        back = sampled_from_csv(problem.grid, path)
        np.testing.assert_array_equal(back.values, traj.values)

    def test_grid_mismatch_detected(self, tmp_path):
        problem, _, _, _ = build_paper(8)
        traj = seed_trajectory(problem, "linear")
        path = tmp_path / "traj.csv"
        write_text_atomic(path, trajectory_csv(traj))
        other, _, _, _ = build_paper(10)
        with pytest.raises(errors.InvalidTrajectory):
            sampled_from_csv(other.grid, path)

    @pytest.mark.parametrize("text, message", [
        ("t,x\n0,0\n0.5\n1,1\n", "Line #3 (got 1 columns instead of 2)"),
        ("t,x\n0,0\n0.5,1,2\n1,1\n", "Line #3 (got 3 columns instead of 2)"),
        ("", "empty file"),
        ("\n# \n", "empty file"),
    ], ids=["short-row", "long-row", "empty", "blank"])
    def test_malformed_file_is_invalid(self, tmp_path, text, message):
        problem, _, _, _ = build_paper(8)
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(errors.InvalidTrajectory) as exc:
            sampled_from_csv(problem.grid, path)
        assert str(path) in str(exc.value) and message in str(exc.value)

    def test_seventeen_digit_roundtrip(self):
        vals = np.array([1.0 / 3.0, np.pi, 2.0 / 7.0])
        text = csv_text(["v"], [vals])
        parsed = [float(line) for line in text.splitlines()[1:]]
        np.testing.assert_array_equal(parsed, vals)

    @pytest.mark.parametrize("columns", [
        [np.linspace(0.0, 2.0, 7), np.array([1.0 / 3.0, -0.0, 1e-300, 5e-324, -2.5, 1e300, 7.0])],
        [np.array([0.5, 1.0, 1.5]), np.array([np.inf, -np.inf, np.nan]),
         np.array(["Q1 on [a, b-tau]", "Q1 on [a, b-tau]", "Q2 on [b-tau, b]"], dtype=object)],
        [np.array([]), np.array([]), np.array([], dtype=object)],
        [np.arange(4)],
        [np.array([0.0, 1.0, 2.0, 3.0]),
         np.array(['say "hi"', "two\nlines", "cr\rhere", "plain"], dtype=object)],
    ])
    def test_table_equals_the_per_row_format(self, columns):
        # one format call over the whole table writes what a format call per
        # row writes: numbers at 17 digits, text as the csv module quotes it
        # (RFC 4180: quoted where it holds a comma, a quote or a line break),
        # a header alone when there are no rows
        header = [f"c{j}" for j in range(len(columns))]
        cols = [c.tolist() for c in columns]

        def quoted(text):
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\r\n").writerow([text])
            return buf.getvalue()[:-2]

        cols = [[quoted(v) for v in c] if c and isinstance(c[0], str) else c for c in cols]
        row = ",".join("{}" if c and isinstance(c[0], str) else "{:.17g}" for c in cols)
        per_row = "\n".join([",".join(header), *(row.format(*r) for r in zip(*cols))]) + "\n"
        text = csv_text(header, columns)
        assert text == per_row
        # and the csv module reads the text fields back as they were
        rows = list(csv.reader(io.StringIO(text, newline="")))[1:]
        assert all(len(r) == len(columns) for r in rows)
        for j, c in enumerate(columns):
            if c.dtype == object:
                assert [r[j] for r in rows] == c.tolist()

    def test_percent_fill_writes_what_str_format_writes(self):
        # the table is filled by one % over a tuple: numbers must come out as
        # '{:.17g}'.format writes them, ints, bools, signed zeros, infinities,
        # NaN and subnormals included, and text holding %, { or a comma must
        # pass through untouched (quoted where it holds the comma)
        nums = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308,
                1e-310, 1.7976931348623157e308, 1.0 / 3.0, -2.5, 1e16, 123456789012345680.0]
        ints = list(range(-6, 7))
        bools = [True, False] * 6 + [True]
        text = ["100%", "%s", "%(x)s", "{}", "{0:.3g}", "a,b", "%%", "{", "}", "%d,{}",
                "plain", "%.17g", "50% of {n}"]
        columns = [np.array(nums), np.array(ints), np.array(bools), np.array(text, dtype=object)]
        header = ["nums", "ints", "bools", "text"]

        def field(v):
            return '"' + v + '"' if "," in v else v

        want = "\n".join(
            [",".join(header)]
            + ["{:.17g},{:.17g},{:.17g},{}".format(a, b, c, field(d))
               for a, b, c, d in zip(nums, ints, bools, text)]) + "\n"
        assert csv_text(header, columns) == want
        # and on random bit patterns, one number per row
        bits = np.random.default_rng(3).integers(0, 2**64, 20000, dtype=np.uint64)
        vals = bits.view(np.float64)
        want = "v\n" + "".join("{:.17g}\n".format(v) for v in vals.tolist())
        assert csv_text(["v"], [vals]) == want

    def test_each_distinct_label_is_quoted_once(self, monkeypatch):
        calls = []
        original = reportio._field
        monkeypatch.setattr(reportio, "_field", lambda v: calls.append(v) or original(v))
        labels = np.array(["Q1 on [a, b-tau]"] * 50 + ["Q2 on [b-tau, b]"] * 30, dtype=object)
        text = csv_text(["t", "label"], [np.arange(80.0), labels])
        assert sorted(calls) == ["Q1 on [a, b-tau]", "Q2 on [b-tau, b]"]
        assert text.count('"Q1 on [a, b-tau]"') == 50

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077, 0o002])
    def test_reports_follow_the_umask(self, tmp_path, umask):
        # the file gets 0o666 less the umask, as open() would give it, and
        # no temporary file is left beside it
        old = os.umask(umask)
        try:
            write_text_atomic(tmp_path / "r.csv", "a\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "r.csv").stat().st_mode) == 0o666 & ~umask
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv"]

    def test_a_missing_nested_directory_is_created(self, tmp_path):
        path = tmp_path / "a" / "b" / "c" / "r.csv"
        write_text_atomic(path, "t,x\n1,2\n")
        assert path.read_bytes() == b"t,x\n1,2\n"
        assert sorted(p.name for p in path.parent.iterdir()) == ["r.csv"]

    def test_several_reports_land_in_one_directory(self, tmp_path):
        out = tmp_path / "out"
        names = [f"r{i}.csv" for i in range(5)]
        for i, name in enumerate(names):
            write_text_atomic(out / name, f"v\n{i}\n")
        # and a second write replaces a report in place
        write_text_atomic(out / names[0], "v\n9\n")
        assert sorted(p.name for p in out.iterdir()) == names
        assert [(out / name).read_text() for name in names] == [
            "v\n9\n", "v\n1\n", "v\n2\n", "v\n3\n", "v\n4\n"]

    def test_a_failed_write_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        # os.write fails after part of the text is written: the report keeps
        # its old content and no *.tmp file is left
        path = tmp_path / "r.csv"
        write_text_atomic(path, "old\n")
        original = os.write
        calls = []

        def partial_then_fail(fd, data):
            calls.append(len(data))
            if len(calls) > 1:
                raise OSError(28, "No space left on device")
            return original(fd, data[:3])

        monkeypatch.setattr(os, "write", partial_then_fail)
        with pytest.raises(OSError, match="No space"):
            write_text_atomic(path, "t,x\n" * 100)
        assert len(calls) == 2
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv"]

    def test_a_short_write_is_completed(self, tmp_path, monkeypatch):
        original = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: original(fd, data[:7]))
        text = "t,label\n" + "0.5,\"Q on [a, b]\"\n" * 20
        write_text_atomic(tmp_path / "r.csv", text)
        assert (tmp_path / "r.csv").read_text() == text

    def test_bytes_are_those_of_a_utf8_text_file(self, tmp_path):
        # text with line feeds and a non-ASCII label: the bytes open() writes
        # in text mode as UTF-8 with no newline translation
        text = csv_text(["t", "label"], [np.array([0.5, -0.0, 1e-300]),
                                         np.array(["λ-weighted", "Q on [a, b]", "τ"],
                                                  dtype=object)])
        write_text_atomic(tmp_path / "r.csv", text)
        with open(tmp_path / "want.csv", "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        assert (tmp_path / "r.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert (tmp_path / "r.csv").read_bytes() == text.encode("utf-8")
        assert "λ".encode("utf-8") in (tmp_path / "r.csv").read_bytes()
