import sys
from decimal import Decimal, localcontext
from math import isfinite, perm
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import herglotz as hg
from herglotz import conditions, expr
from herglotz.bundles import bundle
from herglotz.errors import FixedNode
from herglotz.integrate import (
    Panels,
    VariationDirection,
    variation_weights,
)
from herglotz.trajectory import CubicSpline as NodeSpline
from herglotz.trajectory import SampledTrajectory


@pytest.fixture(scope="session")
def paper_bundle():
    return bundle("paper-s4")


def build_paper(n):
    """Delayed reference problem with its piecewise extremal trajectory."""
    cfg = bundle("paper-s4").config()
    problem, traj, group, opts = cfg.build(n_override=n)
    return problem, traj, group, opts


def build_bundle(name, n=None):
    cfg = bundle(name).config()
    return cfg.build(n_override=n)


@pytest.fixture(scope="session")
def paper400():
    problem, traj, group, _ = build_paper(400)
    zpath = hg.integrate_z(problem, traj)
    return problem, traj, group, zpath


def wavy_sampled(problem, amplitude=0.3, freq=2.0):
    """Smooth non-extremal sampled trajectory: linear seed plus a bump that
    vanishes with its second derivative at both pinned ends."""
    g = problem.grid
    traj = hg.seed_trajectory(problem, "linear")
    vals = traj.values.copy()
    tm = g.nodes[g.m + 1: g.n + g.m]
    span = g.b - g.a
    vals[g.m + 1: g.n + g.m] += amplitude * np.sin(
        freq * np.pi * (tm - g.a) / span)
    return hg.SampledTrajectory(g, vals)


def whole_tree_z(problem, traj):
    """Oracle: z and lambda at the nodes by RK4 stages that bind all six
    names and walk the whole tree of L at every stage."""
    P = Panels(problem, traj)
    k, hs = P.k, P.hs
    b = {}

    def stage(j, zv):
        for name in ("t", "x", "dx", "xtau", "dxtau"):
            b[name] = P.bind[name][j]
        b["z"] = zv
        val, dz = expr.value_and_partial(problem.lagrangian, "z", b)
        return float(val), -float(dz)

    zs, mus = np.empty(k + 1), np.empty(k + 1)
    z = zs[0] = float(problem.gamma)
    mu = mus[0] = 0.0
    for i in range(k):
        h = hs[i]
        z1, m1 = stage(i, z)
        z2, m2 = stage(k + i, z + 0.5 * h * z1)
        z3, m3 = stage(k + i, z + 0.5 * h * z2)
        z4, m4 = stage(2 * k + i, z + h * z3)
        z = z + h * (z1 + 2.0 * z2 + 2.0 * z3 + z4) / 6.0
        mu = mu + h * (m1 + 2.0 * m2 + 2.0 * m3 + m4) / 6.0
        assert isfinite(z) and isfinite(mu)
        zs[i + 1] = z
        mus[i + 1] = mu
    return zs[P.node_pos], np.exp(mus[P.node_pos])


def affine_rk4(P, A, B, gamma, exact=True):
    """Oracle: z at every stop by the RK4 stage formulas for L = A + B z on
    the float columns A and B at the samples of P: in 40-digit decimals if
    exact, else in floats on |A|, |B| and |gamma|, the magnitude M_i of the
    terms that the float formulas round (every term is then non-negative)."""
    k = P.k
    if exact:
        num = Decimal
    else:
        A, B, gamma = np.abs(A), np.abs(B), abs(gamma)
        num = float
    cols = [[num(v) for v in c.tolist()] for c in (P.hs, A, B)]
    half, two, six = num(0.5), num(2), num(6)
    z = num(float(gamma))
    zs = [z]
    with localcontext(prec=40):
        for i, h in enumerate(cols[0]):
            al, am, ar = (cols[1][j] for j in (i, k + i, 2 * k + i))
            bl, bm, br = (cols[2][j] for j in (i, k + i, 2 * k + i))
            z1 = al + bl * z
            z2 = am + bm * (z + half * h * z1)
            z3 = am + bm * (z + half * h * z2)
            z4 = ar + br * (z + h * z3)
            z = z + h * (z1 + two * z2 + two * z3 + z4) / six
            zs.append(z)
    return np.array([float(v) for v in zs])


def masked_first_variation(problem, traj, zpath, eta):
    """Oracle: first variation with eta read by its own natural spline on
    [a, b] and set to zero left of a, and the delayed reads masked by
    Panels.inside, so exactly s - tau = a at a panel right reads zero."""
    g = problem.grid
    nodes, main = g.main_nodes, eta.values[g.m:]
    spline = CubicSpline(nodes, main, bc_type="natural")

    def reads(ts):
        val, slope = np.zeros_like(ts), np.zeros_like(ts)
        inside = ts >= g.a
        val[inside] = spline(ts[inside])
        slope[inside] = spline(ts[inside], 1)
        idx = np.clip(np.searchsorted(nodes, ts), 0, len(nodes) - 1)
        exact = (nodes[idx] == ts) & inside
        val[exact] = main[idx[exact]]
        return val, slope

    P = zpath.samples(traj)
    eta_s, deta_s = reads(P.times)
    eta_d, deta_d = (np.where(P.inside, v, 0.0) for v in reads(P.delayed))
    f = P.lam * (P.table("x") * eta_s + P.table("dx") * deta_s
                 + P.table("xtau") * eta_d + P.table("dxtau") * deta_d)
    return float(np.sum(P.simpson(f))) / zpath.lambda_b


def unit_direction(grid, node_index):
    """Admissible direction with value 1 at one free node (global node
    index); a pinned node raises FixedNode."""
    if not (grid.m < node_index < grid.n + grid.m):
        raise FixedNode(f"node {node_index} is pinned")
    vals = np.zeros(grid.n + 1)
    vals[node_index - grid.m] = 1.0
    return VariationDirection(grid, vals)


@pytest.fixture
def node_table_calls(monkeypatch):
    """List that grows by one per conditions.node_tables call, wherever the
    function was imported."""
    calls = []
    original = conditions.node_tables

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("herglotz") and getattr(module, "node_tables", None) is original:
            monkeypatch.setattr(module, "node_tables", counted)
    return calls


@pytest.fixture
def trajectory_reads(monkeypatch):
    """Called with a trajectory class, returns a list that grows by the
    want_ddx of each later eval_many call on that class."""
    def watch(cls):
        reads = []
        original = cls.eval_many

        def recorded(self, ts, want_ddx=True):
            reads.append(want_ddx)
            return original(self, ts, want_ddx=want_ddx)

        monkeypatch.setattr(cls, "eval_many", recorded)
        return reads
    return watch


# Per-call oracles: the reads as they were before the panel samples were
# located once per grid, each searching its samples afresh.

def per_call_spline_read(spline, ts, nus):
    """CubicSpline.read with its own interval search and node-hit rule, each
    order by Horner's rule on the coefficients times perm(k, nu)."""
    ts = np.asarray(ts, dtype=float)
    t = ts.reshape(-1)
    x = spline.x
    i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(x) - 2)
    z = t - x[i]
    c = np.take(spline.c, i, axis=1)
    out = []
    for nu in nus:
        res = perm(3, nu) * c[0]
        for k in (2, 1, 0)[:3 - nu]:
            res = res * z + perm(k, nu) * c[3 - k]
        if nu == 0:
            at = i + (t == x[-1])
            np.copyto(res, spline.y[at], where=t == x[at])
        out.append(res.reshape(ts.shape))
    return tuple(out)


def one_sided_piece_read(traj, ts, side):
    """x and x' of a piecewise trajectory at ts on the given side, by a
    search of its own: the piece of each sample is found among the piece
    starts with searchsorted's side, so with side "left" a sample on a kink
    takes the piece that ends there, and walked as eval_many walks it."""
    ts = np.asarray(ts, dtype=float)
    starts = np.array([t0 for t0, _, _ in traj.pieces])
    idx = np.clip(np.searchsorted(starts, ts, side=side) - 1, 0, len(starts) - 1)
    x, dx = np.empty_like(ts), np.empty_like(ts)
    for i, (_, _, e) in enumerate(traj.pieces):
        at = idx == i
        if np.any(at):
            x[at], dx[at] = expr.value_and_partial(e, "t", {"t": ts[at]})
    return x, dx


def per_call_eval(traj, ts, side):
    """x and x' of a trajectory at ts on the given side; a piecewise one is
    read by one_sided_piece_read, a sampled one from its own natural splines
    through the node values of [a - tau, a] and [a, b], built here, picked
    per sample and read with per_call_spline_read."""
    if not isinstance(traj, SampledTrajectory):
        return one_sided_piece_read(traj, ts, side)
    g = traj.grid
    main = NodeSpline(g.main_nodes, traj.values[g.m:], "natural")
    if g.m == 0:
        use_main = np.ones(ts.shape, dtype=bool)
    elif side == "left":
        use_main = ts > g.a
    else:
        use_main = ts >= g.a
    x, dx = np.empty_like(ts), np.empty_like(ts)
    if np.any(~use_main):
        hist = NodeSpline(g.nodes[: g.m + 1], traj.values[: g.m + 1], "natural")
        x[~use_main], dx[~use_main] = per_call_spline_read(hist, ts[~use_main], (0, 1))
    x[use_main], dx[use_main] = per_call_spline_read(main, ts[use_main], (0, 1))
    return x, dx


def per_call_panel_read(P, traj):
    """x, x', x(s - tau), x'(s - tau) at the panel samples by four per-call
    reads: lefts and midpoints from the right, rights from the left."""
    k = P.k
    out = [np.empty_like(P.times) for _ in range(4)]
    for sl, side in ((slice(0, 2 * k), "right"), (slice(2 * k, 3 * k), "left")):
        out[0][sl], out[1][sl] = per_call_eval(traj, P.times[sl], side)
        out[2][sl], out[3][sl] = per_call_eval(traj, P.delayed[sl], side)
    return out


def node_plan(grid):
    """The arrays of PanelPlan written out: the stops are the nodes of
    [a, b], the delayed stops the nodes t_0 .. t_n, and the offsets those of
    the midpoints into every grid interval."""
    nodes, n = grid.nodes, grid.n
    stops, dstops = grid.main_nodes, nodes[:n + 1]
    times, delayed = (np.concatenate([s[:-1], 0.5 * (s[:-1] + s[1:]), s[1:]])
                      for s in (stops, dstops))
    inside = delayed >= grid.a
    inside[2 * n:] = delayed[2 * n:] > grid.a
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    return SimpleNamespace(k=n, node_pos=np.arange(n + 1), hs=stops[1:] - stops[:-1],
                           times=times, delayed=delayed, inside=inside,
                           offsets=mids - nodes[:-1])


def per_call_first_variation(P, zpath, eta):
    """first_variation with eta read by per_call_panel_read at the samples P
    carries, z and lambda filled in: the shared weight table contracted with
    those reads."""
    _, w = variation_weights(zpath, P.traj)
    return float(np.sum(w * per_call_panel_read(P, eta))) / zpath.lambda_b


def per_panel_hermite(problem, zpath):
    """Oracle: z and lambda at the panel samples, one panel at a time: the
    stop values at the ends, and RK4's cubic Hermite dense output at the
    midpoint from slopes z' = L and mu' = -L_z that walk L on the floats of
    each end sample. lambda is exp of mu over the whole sample column."""
    P = zpath.panels
    k = P.k
    zs, mus = zpath.stop_z.tolist(), zpath.stop_mu.tolist()
    cols = {name: P.bind[name].tolist() for name in ("t", "x", "dx", "xtau", "dxtau")}

    def slopes(j, zv):
        b = {name: col[j] for name, col in cols.items()}
        b["z"] = zv
        val, dz = expr.value_and_partial(problem.lagrangian, "z", b)
        return float(val), -float(dz)

    z, mu = np.empty(3 * k), np.empty(3 * k)
    for i, h in enumerate(P.hs.tolist()):
        zl, ml = slopes(i, zs[i])
        zr, mr = slopes(2 * k + i, zs[i + 1])
        z[i], z[k + i], z[2 * k + i] = (
            zs[i], 0.5 * (zs[i] + zs[i + 1]) + h / 8.0 * (zl - zr), zs[i + 1])
        mu[i], mu[k + i], mu[2 * k + i] = (
            mus[i], 0.5 * (mus[i] + mus[i + 1]) + h / 8.0 * (ml - mr), mus[i + 1])
    return z, np.exp(mu)


# Lagrangian tables as they were filled before a partial in a variable L does
# not read was taken as an exact zero and u^2's tangent as 2 u u': a walk per
# name, every ^ tangent by the generic power rule.

def generic_pow_dual(uv, ut, vv, vt):
    """expr._pow_dual with the generic rule v u^(v-1) u' for every exponent."""
    val = expr._pow_value(uv, vv)
    if vt is not None and expr._any(vt != 0.0):
        if expr._any((uv <= 0.0) & (vt != 0.0)):
            raise expr.DomainError("d/dv of u^v needs u > 0")
        exp_term = val * expr._apply("log", uv) * vt
    else:
        exp_term = 0.0
    if ut is not None and expr._any(ut != 0.0):
        if expr._any((uv == 0.0) & (vv < 1.0) & (ut != 0.0)):
            raise expr.DomainError("u^v is not differentiable in u at u=0 for v < 1")
        base_pow = expr._pow_value(uv, vv - 1.0)
        base_term = vv * base_pow * ut
        if expr._is_array(base_term):
            base_term = np.where(ut == 0.0, 0.0, base_term)
    else:
        base_term = 0.0
    return val, exp_term + base_term


def per_name_table(samples, name):
    """The table name of a Samples by its own walk of L, with
    generic_pow_dual in place of expr._pow_dual."""
    L, bind = samples.lagrangian, samples.bind
    fast, expr._pow_dual = expr._pow_dual, generic_pow_dual
    try:
        v = expr.evaluate(L, bind) if name == "L" else expr.partial(L, name, bind)
    finally:
        expr._pow_dual = fast
    return np.ascontiguousarray(np.broadcast_to(np.asarray(v, dtype=float), bind["t"].shape))
