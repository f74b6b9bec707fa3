import numpy as np
import pytest

import herglotz as hg
from herglotz import errors
from herglotz.reportio import csv_text, write_text_atomic
from herglotz.trajectory import (
    PiecewiseTrajectory,
    SampledTrajectory,
    build_grid,
    perturb,
    sampled_from_csv,
    seed_trajectory,
    trajectory_csv,
)

from conftest import build_paper


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


class TestSampled:
    def test_derivative_of_sampled_parabola(self):
        g = build_grid(0.0, 1.0, 0.0, 100)
        traj = SampledTrajectory(g, g.nodes ** 2)
        _, dx, _ = traj.eval(0.5)
        assert abs(dx - 1.0) < 1e-4   # exact derivative of t^2 at 0.5 is 1

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
