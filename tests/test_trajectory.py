import numpy as np
import pytest
from scipy.interpolate import CubicSpline as ScipyCubicSpline
from scipy.linalg import solve_banded

import herglotz as hg
from herglotz import errors
from herglotz.reportio import csv_text, write_text_atomic
from herglotz.trajectory import (
    CubicSpline,
    PiecewiseTrajectory,
    SampledTrajectory,
    build_grid,
    perturb,
    sampled_from_csv,
    seed_trajectory,
    solve_tridiagonal,
    spline_adjoint,
    trajectory_csv,
)

from conftest import build_paper, unit_direction


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
        xl, dxl, _ = traj.eval(0.0, side="left")
        assert xl == 0.0 and dxl == -1.0         # history slope from the left

    def test_breakpoint_value_matches_limit_from_above(self):
        _, traj, _, _ = build_paper(40)
        for rho in traj.breakpoints:
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
        # the first piece is 0.3h long, shorter than the 5h/16 of a full window
        g = build_grid(0.0, 1.0, 0.0, 10)
        traj = PiecewiseTrajectory(g, [(0.0, 0.03, "t^5"), (0.03, 1.0, "t^5")])
        slack = 5e-10   # inside the domain slack 1e-9 (b - a)
        for t, side in ((-slack, "right"), (0.0, "right"), (0.015, "right"),
                        (0.03, "left"), (0.03, "right"), (0.5, "right"),
                        (1.0, "right"), (1.0 + slack, "right")):
            _, _, ddx = traj.eval_many(np.array([t]), side=side)
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
        for side in ("left", "right"):
            with pytest.raises(errors.OutOfDomain, match="nan"):
                traj.eval_many(np.array([0.5, np.nan]), side=side)

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
        assert traj.breakpoints == (0.0,)
        _, dx_left, _ = traj.eval(0.0, side="left")
        _, dx_right, _ = traj.eval(0.0)
        assert dx_left == pytest.approx(-1.0, abs=1e-12)   # history slope
        assert dx_right == pytest.approx(0.5, abs=1e-12)   # linear seed slope

    def test_no_junction_without_delay(self):
        g = build_grid(0.0, 1.0, 0.0, 10)
        traj = SampledTrajectory(g, g.nodes)
        assert traj.breakpoints == ()


class TestCubicSpline:
    @pytest.mark.parametrize("n", [*range(2, 12), 50, 101, 401, 2001])
    def test_bitwise_equal_to_scipy(self, n):
        # scipy's dense 3-point parabola and 2-point line are not carried
        # over: below 4 nodes not-a-knot falls back to natural ends
        rng = np.random.default_rng(n)
        for x in (np.linspace(-0.3, 1.7, n), np.sort(rng.uniform(-1.0, 2.0, n))):
            span = x[-1] - x[0]
            ts = np.concatenate([x, [x[0] - 1e-3 * span, x[-1] + 1e-3 * span],
                                 rng.uniform(x[0], x[-1], 40)])
            for bc in ("natural", "not-a-knot"):
                ref_bc = bc if n >= 4 else "natural"
                for y in (rng.normal(size=n), rng.normal(size=(n, 2))):
                    ours, ref = CubicSpline(x, y, bc), ScipyCubicSpline(x, y, bc_type=ref_bc)
                    together = ours.read(ts, (0, 1, 2))
                    for nu in (0, 1, 2):
                        want = ref(ts, nu)
                        if nu == 0:
                            want[:n] = y    # a read at a node returns the stored value
                        np.testing.assert_array_equal(ours(ts, nu), want, strict=True)
                        np.testing.assert_array_equal(together[nu], want, strict=True)

    @pytest.mark.parametrize("cols", [(), (2,)])
    def test_several_orders_read_as_separate_reads(self, cols):
        rng = np.random.default_rng(5)
        x = np.sort(rng.uniform(-1.0, 2.0, 9))
        y = rng.normal(size=(9, *cols))
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
    def test_bitwise_equal_to_solve_banded(self, n):
        rng = np.random.default_rng(n)
        band = rng.uniform(-1.0, 1.0, (3, n))
        band[1] += 3.0 * np.sign(band[1])
        for rhs in (rng.normal(size=n), rng.normal(size=(n, 2))):
            kept = band.copy(), rhs.copy()
            got = solve_tridiagonal(band, rhs)
            np.testing.assert_array_equal(got, solve_banded((1, 1), band, rhs), strict=True)
            assert band.tobytes() == kept[0].tobytes() and rhs.tobytes() == kept[1].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_singular_band_raises(self, n):
        band = np.ones((3, n))
        band[:, 0] = 0.0    # a zero first column
        with pytest.raises(np.linalg.LinAlgError):
            solve_tridiagonal(band, np.ones(n))


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
        g = spline_adjoint(x, ts, wv, wd)
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
                for new, old, want in zip(moved.eval_many(ts, side, want_ddx=False),
                                          traj.eval_many(ts, side, want_ddx=False),
                                          eta.eval_many(ts, side, want_ddx=False)):
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
        with pytest.raises(errors.InvalidTrajectory):
            hg.HerglotzProblem(grid=g, gamma=0.0, beta=1.0, history="-t",
                               lagrangian="z + eps")

    def test_bad_sense(self):
        g = build_grid(0.0, 2.0, 1.0, 4)
        with pytest.raises(errors.BadInterval):
            hg.HerglotzProblem(grid=g, gamma=0.0, beta=1.0, history="-t",
                               lagrangian="z", sense="extremize")

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

    def test_seventeen_digit_roundtrip(self):
        vals = np.array([1.0 / 3.0, np.pi, 2.0 / 7.0])
        text = csv_text(["v"], [vals])
        parsed = [float(line) for line in text.splitlines()[1:]]
        np.testing.assert_array_equal(parsed, vals)
