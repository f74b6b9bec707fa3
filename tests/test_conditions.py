import json
import math

import numpy as np
import pytest

import herglotz as hg
from herglotz import cli, expr
from herglotz.bundles import BUNDLE_NAMES
from herglotz.conditions import (
    dbr_residuals,
    el_residuals,
    hypothesis_profiles,
    node_tables,
    weak_form_values,
)
from herglotz.errors import InvalidTrajectory
from herglotz.integrate import integrate_z
from herglotz.noether import check_noether
from herglotz.trajectory import PiecewiseTrajectory, SampledTrajectory, build_grid

from conftest import build_bundle, build_paper, one_sided_piece_read, wavy_sampled

E = math.e

# independent 5-point first-derivative rows for the reduction oracles
_ORACLE_ROWS = np.array([
    [-25.0, 48.0, -36.0, 16.0, -3.0],
    [-3.0, -10.0, 18.0, -6.0, 1.0],
    [1.0, -8.0, 0.0, 8.0, -1.0],
    [-1.0, 6.0, -18.0, 10.0, 3.0],
    [3.0, -16.0, 36.0, -48.0, 25.0],
]) / 12.0


def oracle_ddt(samples, h):
    out = np.empty(len(samples))
    for i in range(len(samples)):
        w0 = min(max(i - 2, 0), len(samples) - 5)
        out[i] = _ORACLE_ROWS[i - w0] @ samples[w0:w0 + 5] / h
    return out


class TestEulerLagrange:
    def test_reference_extremal(self, paper400):
        problem, traj, _, zp = paper400
        r1, r2 = el_residuals(problem, traj, zp)
        assert r1.sup_norm < 1e-6
        assert r1.passed
        assert np.max(np.abs(r2.values)) < 1e-10   # reads 0 = 0 on [1, 2]
        assert r2.passed

    def test_x_free_lagrangian_gives_zero_residuals(self):
        g = build_grid(0.0, 2.0, 1.0, 40)
        problem = hg.HerglotzProblem(grid=g, gamma=0.0, beta=1.0,
                                     history="-t", lagrangian="t + z")
        traj = hg.seed_trajectory(problem, "linear")
        zp = integrate_z(problem, traj)
        r1, r2 = el_residuals(problem, traj, zp)
        assert np.max(np.abs(r1.values)) < 1e-10
        assert np.max(np.abs(r2.values)) < 1e-10

    def test_non_extremal_matches_closed_form(self):
        problem, traj, _, _ = build_bundle("paper-s4-nonextremal", n=400)
        zp = integrate_z(problem, traj)
        r1, r2 = el_residuals(problem, traj, zp)
        expected = 2.0 * np.exp(-(r1.times + 1.0))
        keep = np.ones(len(r1.times), dtype=bool)
        for lo, hi in r1.excluded_zones:
            keep &= ~((r1.times >= lo) & (r1.times <= hi))
        assert np.max(np.abs(r1.values[keep] - expected[keep])) < 1e-4
        assert not r1.passed
        assert abs(r1.sup_norm - 2.0 / E) < 0.02   # sup just inside the zones
        assert np.max(np.abs(r2.values)) < 1e-10

    def test_junction_zones_recorded(self, paper400):
        problem, traj, _, zp = paper400
        r1, _ = el_residuals(problem, traj, zp)
        centers = [0.5 * (lo + hi) for lo, hi in r1.excluded_zones]
        assert any(abs(c) < 1e-9 for c in centers)
        assert any(abs(c - 1.0) < 1e-9 for c in centers)


class TestDuBoisReymond:
    def test_reference_extremal(self, paper400):
        problem, traj, _, zp = paper400
        d1, d2 = dbr_residuals(problem, traj, zp)
        assert d1.sup_norm < 1e-6
        assert d2.sup_norm < 1e-6

    def test_time_only_lagrangian(self):
        g = build_grid(0.0, 1.0, 0.0, 40)
        problem = hg.HerglotzProblem(grid=g, gamma=0.0, beta=1.0,
                                     history="0", lagrangian="t")
        traj = hg.seed_trajectory(problem, "linear")
        zp = integrate_z(problem, traj)
        d1, d2 = dbr_residuals(problem, traj, zp)
        assert np.max(np.abs(d1.values)) < 1e-10
        assert np.max(np.abs(d2.values)) < 1e-10

    def test_classical_energy_constant_along_line(self):
        problem, traj, _, _ = build_bundle("classical-line", n=100)
        zp = integrate_z(problem, traj)
        d1, d2 = dbr_residuals(problem, traj, zp)
        assert d1.sup_norm < 1e-8
        assert d2.sup_norm < 1e-8


class TestHypotheses:
    def test_reference_extremal_satisfies_h1(self, paper400):
        problem, traj, group, zp = paper400
        h1, h2 = hypothesis_profiles(problem, traj, zp, group)
        assert h1.sup_norm < 1e-6
        assert h2 is not None
        assert np.max(np.abs(h2.values)) == 0.0   # xi = 0, sigma constant

    def test_h2_omitted_without_group(self, paper400):
        problem, traj, _, zp = paper400
        h1, h2 = hypothesis_profiles(problem, traj, zp)
        assert h2 is None
        assert h1.sup_norm < 1e-6

    def test_quadratic_trajectory_violates_h1(self):
        problem, _, group, _ = build_paper(400)
        g = problem.grid
        traj = PiecewiseTrajectory(g, [(-1.0, 0.0, "-t"), (0.0, 1.0, "t^2"),
                                       (1.0, 2.0, "1")])
        h1, _ = hypothesis_profiles(problem, traj, integrate_z(problem, traj), group)
        # left slot is absent, so the profile reduces to 2 x'(t) x''(t) = 8t
        i = int(np.argmin(np.abs(h1.times - 0.5)))
        assert abs(h1.times[i] - 0.5) < 1e-12
        assert abs(h1.values[i] - 4.0) < 1e-4
        assert not h1.passed


def _zone_reports(summary):
    """The zone lists of every residual and conservation report in a JSON
    summary of check-hyp or noether."""
    if isinstance(summary, list):
        return [rep["excluded_zones"] for rep in summary]
    reps = [*summary["premises"].values(), *summary["conservation"]["profiles"]]
    return [rep["excluded_zones"] for rep in reps if "excluded_zones" in rep]


class TestExclusionZones:
    # paper-s4 kinks at t = 0 and t = 1; at these n, the node nearest -1 or
    # b - tau +- 2h is one ulp off the sum a kink +- tau +- 2h
    @pytest.mark.parametrize("n", [98, 196, 206])
    @pytest.mark.parametrize("command, report", [
        ("check-hyp", "check_hyp.json"), ("noether", "noether.json")])
    def test_zone_bounds_are_node_plus_minus_two_steps(self, tmp_path, n, command, report):
        assert cli.main([command, "paper-s4", "--n", str(n), "--out", str(tmp_path)]) in (0, 1)
        g = build_paper(n)[0].grid
        zones = _zone_reports(json.loads((tmp_path / report).read_text()))
        assert any(zones)
        for lo, hi in (z for rep in zones for z in rep):
            c = int(round((0.5 * (lo + hi) - g.nodes[0]) / g.h))
            assert (lo, hi) == (g.nodes[c] - 2.0 * g.h, g.nodes[c] + 2.0 * g.h)

    # (a, b, tau, n, kink node j, zone centre c): c is j or an image j -+ m,
    # exactly 2 nodes before the EL-2 span [b - tau, b] (nodes n .. n + m) or
    # after it. A float rule on j's time +- tau +- 2h lists each of these
    # zones by rounding and masks the end sample (at n = 10, tau = 0.5 every
    # sample of EL-1)
    @pytest.mark.parametrize("a, b, tau, n, j, c", [
        (0.0, 1.0, 0.5, 10, 8, 8),
        (0.0, 1.0, 0.1, 10, 7, 8),
        (0.0, 1.0, 7 / 12, 12, 10, 10),
        (0.0, 1.0, 0.75, 20, 33, 18),
        (0.0, 1.0, 0.5, 12, 14, 20),
        (0.3, 1.3, 0.75, 12, 14, 23),
    ])
    def test_a_zone_two_nodes_outside_the_span_is_not_listed(self, a, b, tau, n, j, c):
        g = build_grid(a, b, tau, n)
        first, last = n, n + g.m
        assert c in (first - 2, last + 2) and c in (j - g.m, j, j + g.m)
        # L_x is the EL-2 residual, largest in size at the span's end next to c
        slope = f"({b + 1.0!r} - t)" if c < first else f"(t - {a - 1.0!r})"
        problem = hg.HerglotzProblem(grid=g, gamma=0.0, beta=1.0, history="t",
                                     lagrangian=f"{slope} * x")
        kink = float(g.nodes[j])
        traj = PiecewiseTrajectory(g, [(g.nodes[0], kink, "t"),
                                       (kink, b, f"2 * t - {kink!r}")])
        assert traj.kinks == (j,)
        _, r2 = el_residuals(problem, traj, integrate_z(problem, traj))
        t_c = g.nodes[c] if c < len(g.nodes) else a + (c - g.m) * g.h
        assert all(abs(0.5 * (lo + hi) - t_c) > g.h for lo, hi in r2.excluded_zones)
        end = 0 if c < first else -1
        assert r2.sup_norm == abs(r2.values[end])


def node_walks(monkeypatch, problem):
    """List that grows by one per evaluate or partial of the Lagrangian over
    the n+1 nodes of [a, b]."""
    walks = []
    for name in ("evaluate", "partial"):
        def counted(e, *args, original=getattr(expr, name)):
            if e is problem.lagrangian and np.size(args[-1]["t"]) == problem.grid.n + 1:
                walks.append(1)
            return original(e, *args)
        monkeypatch.setattr(expr, name, counted)
    return walks


class TestNodeTables:
    # paper-s4's L = dxtau^2 + z reads dxtau and z only, so its tables in x,
    # dx, xtau and t are exact zeros with no walk: el walks L_dxtau and L_z,
    # dbr L and L_dxtau, hyp L_dxtau, noether L, L_dxtau and L_z
    @pytest.mark.parametrize("check, expected", [
        ("el", 2), ("dbr", 2), ("hyp", 1), ("noether", 3)])
    def test_each_check_walks_only_the_tables_it_reads(self, monkeypatch, paper400,
                                                       check, expected):
        # a fresh z-path: paper400's keeps the tables an earlier test filled
        problem, traj, group, _ = paper400
        zp = integrate_z(problem, traj)
        run = {"el": lambda: el_residuals(problem, traj, zp),
               "dbr": lambda: dbr_residuals(problem, traj, zp),
               "hyp": lambda: hypothesis_profiles(problem, traj, zp, group),
               "noether": lambda: check_noether(problem, traj, zp, group)}[check]
        walks = node_walks(monkeypatch, problem)
        run()
        assert len(walks) == expected

    def test_hypotheses_read_the_trajectory_once(self, monkeypatch, trajectory_reads,
                                                 paper400):
        # no eval_many call: the grid read of the z-path the check integrates
        # is the only read of x and x', and x'' is read once, at n+1 nodes
        problem, traj, group, _ = paper400
        reads = trajectory_reads(type(traj))
        grid_reads = counted_calls(monkeypatch, type(traj), "read_grid")
        ddx_reads = counted_calls(monkeypatch, type(traj), "ddx_at_nodes")
        hypothesis_profiles(problem, traj, integrate_z(problem, traj), group)
        assert reads == [] and len(grid_reads) == 1
        assert ddx_reads == [((problem.grid.n + 1,), {})]

    def test_residual_checks_read_no_second_derivative(self, monkeypatch, trajectory_reads,
                                                       paper400):
        # no eval_many call: the node tables are the z-path's grid read
        problem, traj, _, zp = paper400
        reads = trajectory_reads(type(traj))
        grid_reads = counted_calls(monkeypatch, type(traj), "read_grid")
        ddx_reads = counted_calls(monkeypatch, type(traj), "ddx_at_nodes")
        el_residuals(problem, traj, zp)
        dbr_residuals(problem, traj, zp)
        assert reads == [] and grid_reads == [] and ddx_reads == []

    @pytest.mark.parametrize("name", BUNDLE_NAMES)
    @pytest.mark.parametrize("n", [None, 98])
    def test_tables_are_the_reads_of_eval_many(self, name, n):
        # x and x' are the node half of the grid read, x'' ddx_at_nodes; both
        # have eval_many's bits at the nodes (n = 98 puts paper-s4's kink at
        # t = 1 one ulp off its node, snapped onto node n/2). Policy on a zero
        # slope: a sampled node's x' is its piece's slope coefficient as
        # stored, where eval_many's Horner sum at offset 0 turns a -0.0
        # coefficient into +0.0, so the two may differ in the sign of a zero
        # slope only; they compare equal by == everywhere and bit for bit
        # wherever the value is not a zero
        problem, traj, _, _ = build_bundle(name, n)
        g = problem.grid
        for tr in (traj, wavy_sampled(problem)):
            T = node_tables(problem, tr, integrate_z(problem, tr))
            x, dx, ddx = tr.eval_many(g.nodes)
            got = (T.x, T.dx, T.xtau, T.dxtau, T.ddxtau)
            want = (x[g.m:], dx[g.m:], x[: g.n + 1], dx[: g.n + 1], ddx[: g.n + 1])
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
                assert _bits(a[a != 0.0]) == _bits(b[b != 0.0])
            # x and x'' keep even the sign of a zero
            for a, b in zip(got[::2], want[::2]):
                assert _bits(a) == _bits(b)

    def test_zero_slope_policy(self):
        # a -0.0 slope coefficient: the table keeps it, eval_many gives +0.0
        g = build_grid(0.0, 1.0, 0.0, 4)
        problem = hg.HerglotzProblem(grid=g, gamma=0.0, beta=0.0, history="0",
                                     lagrangian="dx^2")
        traj = SampledTrajectory(g, np.zeros(5))
        traj.c = np.where(np.arange(4) == 2, -0.0, 0.0)[:, None] * np.ones(4)
        T = node_tables(problem, traj, integrate_z(problem, traj))
        assert np.all(np.signbit(T.dx[:-1]))
        assert not np.any(np.signbit(traj.eval_many(g.nodes[:-1])[1]))

    def test_one_table_per_z_path(self, monkeypatch, paper400):
        # a second lookup hands out the same table, so the checks after the
        # first walk L no more and read x'' no more
        problem, traj, group, _ = paper400
        zp = integrate_z(problem, traj)
        walks = node_walks(monkeypatch, problem)
        ddx_reads = counted_calls(monkeypatch, type(traj), "ddx_at_nodes")
        T = node_tables(problem, traj, zp)
        el_residuals(problem, traj, zp)
        hypothesis_profiles(problem, traj, zp, group)
        walked = len(walks)
        assert walked == 2 and len(ddx_reads) == 1
        assert node_tables(problem, traj, zp) is T
        el_residuals(problem, traj, zp)
        hypothesis_profiles(problem, traj, zp, group)
        assert len(walks) == walked and len(ddx_reads) == 1
        # the trajectory is checked at every lookup, not only the first
        twin = PiecewiseTrajectory(problem.grid, traj.pieces)
        with pytest.raises(InvalidTrajectory, match="different trajectory"):
            node_tables(problem, twin, zp)

    def test_tables_need_the_trajectory_of_the_z_path(self, paper400):
        problem, traj, group, zp = paper400
        twin = PiecewiseTrajectory(problem.grid, traj.pieces)
        with pytest.raises(InvalidTrajectory, match="different trajectory"):
            node_tables(problem, twin, zp)
        for check in (lambda: el_residuals(problem, twin, zp),
                      lambda: dbr_residuals(problem, twin, zp),
                      lambda: hypothesis_profiles(problem, twin, zp, group),
                      lambda: check_noether(problem, twin, zp, group)):
            with pytest.raises(InvalidTrajectory):
                check()


def counted_calls(monkeypatch, cls, name):
    """List that grows by the arguments of each later call of cls.name."""
    calls = []
    original = getattr(cls, name)

    def recorded(self, *args, **kwargs):
        calls.append((args, kwargs))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, recorded)
    return calls


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64).tolist()


class TestReductions:
    def test_no_delay_reduces_to_single_interval_equation(self):
        # z-dependent Lagrangian so the integrating factor is not trivial
        problem, traj, _, _ = build_bundle("herglotz-damped", n=200)
        zp = integrate_z(problem, traj)
        r1, _ = el_residuals(problem, traj, zp)
        T = node_tables(problem, traj, zp)
        h = problem.grid.h
        # directly coded no-delay equation: the x and velocity slots collapse
        px = T.table("x") + T.table("xtau")
        pdx = T.table("dx") + T.table("dxtau")
        direct = T.lam * (px - oracle_ddt(pdx, h) + pdx * T.table("z"))
        assert np.max(np.abs(r1.values - direct)) < 1e-10

    def test_z_free_lagrangian_collapses_factor_and_equations(self):
        g = build_grid(0.0, 2.0, 0.5, 40)
        problem = hg.HerglotzProblem(
            grid=g, gamma=0.0, beta=1.0, history="0.5*t",
            lagrangian="dx^2/2 + x*xtau + dxtau^2/2")
        traj = wavy_sampled(problem)
        zp = integrate_z(problem, traj)
        assert np.all(zp.lam == 1.0)
        r1, r2 = el_residuals(problem, traj, zp)
        T = node_tables(problem, traj, zp)
        m, n, h = g.m, g.n, g.h
        k1 = n - m
        # directly coded classical delayed equations (identity factor)
        shift5 = np.empty(k1 + 1)
        for j in range(k1 + 1):
            w0 = min(max(j + m - 2, m), n - 4)
            shift5[j] = _ORACLE_ROWS[j + m - w0] @ T.table("dxtau")[w0:w0 + 5] / h
        d3 = oracle_ddt(T.table("dx")[: k1 + 1], h)
        direct1 = T.table("xtau")[m:] - shift5 + T.table("x")[: k1 + 1] - d3
        assert np.max(np.abs(r1.values - direct1)) < 1e-10
        d3b = np.empty(m + 1)
        for j in range(m + 1):
            w0 = min(max(k1 + j - 2, k1), n - 4)
            d3b[j] = _ORACLE_ROWS[k1 + j - w0] @ T.table("dx")[w0:w0 + 5] / h
        direct2 = T.table("x")[k1:] - d3b
        assert np.max(np.abs(r2.values - direct2)) < 1e-10


class TestWeakStrongConsistency:
    def test_identity_on_smooth_analytic_trajectory(self):
        # gradient entries are first variations along the unit directions;
        # pairing the strong residuals with those directions (plus the seam
        # term from integrating by parts) must reproduce them
        n = 400
        g = build_grid(0.0, 2.0, 0.5, n)
        problem = hg.HerglotzProblem(
            grid=g, gamma=0.3, beta=1.0, history="0.4*t + 0.3*sin(1.5*t)",
            lagrangian="dx^2/2 + x*xtau + dxtau^2/2 - 0.3*z + 0.2*sin(t)*x")
        traj = PiecewiseTrajectory(g, [(-0.5, 2.0, "0.4*t + 0.3*sin(1.5*t)")])
        zp = integrate_z(problem, traj)
        gv = hg.variational_gradient(problem, traj, zp)
        r1, r2 = el_residuals(problem, traj, zp)
        wf = weak_form_values(problem, traj, zp, r1, r2)
        assert np.max(np.abs(gv - wf)) < 5e-7

    def test_kink_off_the_nodes_is_refused(self):
        # the residuals are sampled at the nodes, and every panel ends on
        # them: a kink off the nodes is refused where the pieces are given
        g = build_grid(0.0, 1.0, 0.0, 16)
        with pytest.raises(hg.errors.InvalidTrajectory, match=r"t=0\.33 is not a grid node"):
            PiecewiseTrajectory(g, [(0.0, 0.33, "t"), (0.33, 1.0, "0.33 + 2*(t - 0.33)")])

    def test_hat_paired_identity(self):
        # with piecewise-linear pairing functions on both sides the quadrature
        # cross terms vanish and the match is tight; the first-variation
        # weights and the strong residuals are sampled one-sided at the seam
        n = 200
        g = build_grid(0.0, 2.0, 0.5, n)
        problem = hg.HerglotzProblem(
            grid=g, gamma=0.3, beta=1.0, history="0.4*t + 0.3*sin(1.5*t)",
            lagrangian="dx^2/2 + x*xtau + dxtau^2/2 - 0.3*z + 0.2*sin(t)*x")
        traj = PiecewiseTrajectory(g, [(-0.5, 2.0, "0.4*t + 0.3*sin(1.5*t)")])
        zp = integrate_z(problem, traj)
        T = node_tables(problem, traj, zp)
        h = g.h
        k1 = g.n - g.m
        tmain = g.main_nodes
        mids = 0.5 * (tmain[:-1] + tmain[1:])
        xm, dxm = traj.eval_many(mids)[:2]
        xtm, dxtm = traj.eval_many(mids - g.tau)[:2]
        # one piece, so the panels are the grid intervals: z and lambda at
        # the grid midpoints are the z-path's panel samples
        P = zp.samples(traj)
        assert P.k == n
        z_m, lam_m = P.z[n:2 * n], P.lam[n:2 * n]
        bind_m = {"t": mids, "x": xm, "dx": dxm, "xtau": xtm, "dxtau": dxtm,
                  "z": z_m}
        bind_n = {"t": tmain, "x": T.x, "dx": T.dx, "xtau": T.xtau,
                  "dxtau": T.dxtau, "z": T.z}

        def plain(name):
            pn = np.broadcast_to(np.asarray(
                hg.partial(problem.lagrangian, name, bind_n), float), tmain.shape)
            pm = np.broadcast_to(np.asarray(
                hg.partial(problem.lagrangian, name, bind_m), float), mids.shape)
            return T.lam * pn, lam_m * pm

        def shifted(name):
            # lambda(t+tau) * dL(name) at t+tau; nodes by index shift,
            # mids by direct evaluation left of the seam only
            psn = T.table("dxtau") if name == "dxtau" else T.table("xtau")
            shn = np.zeros_like(tmain)
            shn[: k1 + 1] = T.lam[g.m:] * psn[g.m:]
            shm = np.zeros_like(mids)
            ok = mids < tmain[k1]
            ms = mids[ok] + g.tau
            # tau = m h: the midpoint m panels to the right
            at = np.flatnonzero(ok) + g.m
            xms, dxms = traj.eval_many(ms)[:2]
            binds = {"t": ms, "x": xms, "dx": dxms, "xtau": xm[ok],
                     "dxtau": dxm[ok], "z": z_m[at]}
            pms = np.broadcast_to(np.asarray(
                hg.partial(problem.lagrangian, name, binds), float), ms.shape)
            shm[ok] = lam_m[at] * pms
            return shn, shm

        w0n, w0m = plain("x")
        w1n, w1m = plain("dx")
        s0n, s0m = shifted("xtau")
        s1n, s1m = shifted("dxtau")
        r1v, r2v = el_residuals(problem, traj, zp)
        right = zp.lam[k1:] * r2v.values
        from scipy.interpolate import CubicSpline
        left_mid = CubicSpline(tmain[: k1 + 1], r1v.values)(mids[:k1])
        right_mid = CubicSpline(tmain[k1:], right)(mids[k1:])

        def strong_at(panel, pos):
            # pos 0/1/2 = left node, midpoint, right node of the panel
            if panel < k1:
                return (r1v.values[panel], left_mid[panel],
                        r1v.values[panel + 1])[pos]
            return (right[panel - k1], right_mid[panel - k1],
                    right[panel - k1 + 1])[pos]

        def weights_at(panel, pos):
            with_shift = panel < k1
            if pos == 1:
                w0 = w0m[panel] + (s0m[panel] if with_shift else 0.0)
                w1 = w1m[panel] + (s1m[panel] if with_shift else 0.0)
            else:
                node = panel + (pos // 2)
                w0 = w0n[node] + (s0n[node] if with_shift else 0.0)
                w1 = w1n[node] + (s1n[node] if with_shift else 0.0)
            return w0, w1

        (xb, xbt), (dxb, dxbt) = one_sided_piece_read(traj, [g.b, g.b - g.tau], "left")
        bsd = {"t": g.b, "x": xb, "dx": dxb, "xtau": xbt, "dxtau": dxbt, "z": zp.z_b}
        seam_term = zp.lambda_b * float(
            hg.partial(problem.lagrangian, "dxtau", bsd))
        for j in range(1, g.n, max(1, g.n // 17)):
            grad_hat = 0.0
            weak_hat = 0.0
            for p, asc in ((j - 1, True), (j, False)):
                ev = (0.0, 0.5, 1.0) if asc else (1.0, 0.5, 0.0)
                dv = (1.0 if asc else -1.0) / h
                simp = (1.0, 4.0, 1.0)
                for pos in range(3):
                    w0, w1 = weights_at(p, pos)
                    grad_hat += h / 6.0 * simp[pos] * (w0 * ev[pos] + w1 * dv)
                    weak_hat += h / 6.0 * simp[pos] * strong_at(p, pos) * ev[pos]
            if j == k1:
                weak_hat += seam_term
            assert abs(grad_hat - weak_hat) / zp.lambda_b < 1e-8
