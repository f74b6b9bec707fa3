import math

import numpy as np
import pytest

import herglotz as hg
from herglotz import expr
from herglotz.conditions import (
    dbr_residuals,
    el_residuals,
    hypothesis_profiles,
    node_tables,
    weak_form_values,
)
from herglotz.integrate import integrate_z
from herglotz.noether import check_noether
from herglotz.trajectory import PiecewiseTrajectory, build_grid

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
        h1, h2 = hypothesis_profiles(problem, traj, group=group, zpath=zp)
        assert h1.sup_norm < 1e-6
        assert h2 is not None
        assert np.max(np.abs(h2.values)) == 0.0   # xi = 0, sigma constant

    def test_h2_omitted_without_group(self, paper400):
        problem, traj, _, zp = paper400
        h1, h2 = hypothesis_profiles(problem, traj, zpath=zp)
        assert h2 is None
        assert h1.sup_norm < 1e-6

    def test_quadratic_trajectory_violates_h1(self):
        problem, _, group, _ = build_paper(400)
        g = problem.grid
        traj = PiecewiseTrajectory(g, [(-1.0, 0.0, "-t"), (0.0, 1.0, "t^2"),
                                       (1.0, 2.0, "1")])
        h1, _ = hypothesis_profiles(problem, traj, group=group)
        # left slot is absent, so the profile reduces to 2 x'(t) x''(t) = 8t
        i = int(np.argmin(np.abs(h1.times - 0.5)))
        assert abs(h1.times[i] - 0.5) < 1e-12
        assert abs(h1.values[i] - 4.0) < 1e-4
        assert not h1.passed

    def test_own_z_integration_matches_supplied(self, paper400):
        problem, traj, group, zp = paper400
        auto = hypothesis_profiles(problem, traj, group=group)
        given = hypothesis_profiles(problem, traj, group=group, zpath=zp)
        np.testing.assert_allclose(auto[0].values, given[0].values, atol=1e-12)


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
        problem, traj, group, zp = paper400
        run = {"el": lambda: el_residuals(problem, traj, zp),
               "dbr": lambda: dbr_residuals(problem, traj, zp),
               "hyp": lambda: hypothesis_profiles(problem, traj, group, zp),
               "noether": lambda: check_noether(problem, traj, zp, group)}[check]
        walks = node_walks(monkeypatch, problem)
        run()
        assert len(walks) == expected

    def test_hypotheses_read_the_trajectory_once(self, trajectory_reads, paper400):
        problem, traj, group, zp = paper400
        reads = trajectory_reads(type(traj))
        hypothesis_profiles(problem, traj, group=group, zpath=zp)
        assert len(reads) == 1

    def test_residual_checks_read_no_second_derivative(self, trajectory_reads, paper400):
        problem, traj, _, zp = paper400
        reads = trajectory_reads(type(traj))
        el_residuals(problem, traj, zp)
        dbr_residuals(problem, traj, zp)
        assert reads == [False, False]


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
        xm, dxm = traj.eval_many(mids, want_ddx=False)
        xtm, dxtm = traj.eval_many(mids - g.tau, want_ddx=False)
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
            xms, dxms = traj.eval_many(ms, want_ddx=False)
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
