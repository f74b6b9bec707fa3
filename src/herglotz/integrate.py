"""Delay-aware integration: the z-path, the integrating factor, first variation.

The functional value z(b) is produced by integrating

    z'(t) = L(t, x(t), x'(t), x(t-tau), x'(t-tau), z(t)),   z(a) = gamma

with classic 4-stage Runge-Kutta at the grid step, restarted at every
trajectory breakpoint and at every breakpoint shifted by +tau, so no stage
straddles a kink of the integrand. Delayed arguments are read from the
trajectory; since tau sits exactly on the grid, delayed reads at nodes land
on nodes. Stage times at substep ends use one-sided trajectory limits so the
integrand stays smooth within each substep. Along the trajectory only z
changes from stage to stage. Where L is affine in z, L = A + B z (expr.affine;
every shipped bundle is), one walk over all the samples gives the columns A
and B: log-lambda is then one running sum of -B, and z runs the stage
formulas on floats with no tree walk. Otherwise each stage binds the
sample's t, x, dx, xtau and dxtau as floats, then z, and walks the whole tree
of L. z and lambda are bit for bit those of that walk, except that an affine
L not written as A +- b*z may move z by a few ulps. A stage that meets a
non-finite z, or a stop where z or log-lambda is one, raises NonFinite; where
the affine stages meet a non-finite value, the stage walk runs instead, so
the error names the same t.

The integrating factor lambda(t) = exp(-int_a^t dL/dz) is accumulated in the
same pass as log-lambda (positivity by construction); if L does not depend on
z the integrand is exactly zero and lambda is exactly one at every node.

The first variation zeta(b) of z(b) along an admissible direction eta is the
closed integral

    zeta(b) = (1/lambda(b)) int_a^b lambda(s) [ L_x eta + L_dx eta'
              + L_xtau eta(s-tau) + L_dxtau eta'(s-tau) ] ds

with eta identically zero left of a, evaluated by composite Simpson on
breakpoint-aligned panels (grid intervals split at kinks, midpoint sampled).
These panels are the RK4 substeps, so one sampler serves both: Panels.read
reads a trajectory, one-sided, at the panel ends and midpoints and at their
delayed images; integrate_z runs its RK4 stages on the reads of x and the
z-path carries them on. The panel geometry depends on the grid and the
trajectory's breakpoints alone, so for the sampled trajectories of a grid it
is computed once (PanelPlan, kept on the grid): node positions, steps, sample
times, delayed images and inside mask, and the samples located once on the
grid's nodes. Every sampled trajectory and direction on that grid, the
z-path's read at the samples and the solver's spline adjoint reuse that one
location; a solve, or a run of gradients on one problem, makes many
integrations on one grid and locates its samples once. The first variation,
the solver gradient and the invariance defect take the samples from the
z-path, with z and lambda there and the Lagrangian partials filled in on
first use, and are each a short formula over them. A direction eta is a
sampled trajectory with zero history (trajectory.VariationDirection), so the
first variation reads it through Panels.read too; the one spline through
node values (trajectory.CubicSpline, which also carries z and lambda between
nodes here) and its adjoint live in trajectory.
All operations are pure (a fill-in on first use writes the same values
whichever caller comes first); concurrent integrations are safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import isfinite
from typing import Optional

import numpy as np

from . import expr
from .errors import InvalidTrajectory, NonFinite
from .reportio import csv_text
from .trajectory import (
    CubicSpline,
    Grid,
    HerglotzProblem,
    Located,
    SampledTrajectory,
    Trajectory,
    VariationDirection,
    adjoint_band,
    check_domain,
    locate,
)


def _snap(ts: np.ndarray, anchors: np.ndarray, tol: float) -> np.ndarray:
    """Replace entries of ts lying within tol of an anchor by that anchor.

    Kills one-ulp drift so that kink times compare exactly in side-aware
    evaluation (e.g. a node computed as a + k*h versus a breakpoint 1.0).
    """
    if len(anchors) == 0:
        return ts
    out = np.asarray(ts, dtype=float).copy()
    idx = np.clip(np.searchsorted(anchors, out), 0, len(anchors) - 1)
    below = np.clip(idx - 1, 0, len(anchors) - 1)
    pick = np.where(
        np.abs(anchors[idx] - out) <= np.abs(anchors[below] - out), idx, below)
    near = np.abs(anchors[pick] - out) <= tol
    out[near] = anchors[pick][near]
    return out


def integration_stops(problem: HerglotzProblem, traj: Trajectory):
    """Sorted substep boundaries on [a, b] and the stop index of each node.

    Stops are the grid nodes on [a, b] merged with every trajectory
    breakpoint rho and its image rho + tau (both read by the integrand).
    A node within snapping tolerance of a kink is displaced onto the kink
    value so float comparisons at the kink are exact.
    """
    g = problem.grid
    vals = g.main_nodes.astype(float).copy()
    tol = 1e-9 * g.h
    extras = []
    for rho in traj.breakpoints:
        for p in (float(rho), float(rho) + g.tau):
            if p <= g.a + tol or p >= g.b - tol:
                continue
            j = int(round((p - g.a) / g.h))
            if 0 <= j <= g.n and abs(vals[j] - p) <= tol:
                vals[j] = p
            else:
                extras.append(p)
    if extras:
        stops = np.sort(np.concatenate([vals, np.array(sorted(set(extras)))]))
    else:
        stops = vals
    node_pos = np.searchsorted(stops, vals)
    return stops, node_pos


@dataclass
class ZPath:
    """z and lambda at the nodes of [a, b], read between them through one
    not-a-knot trajectory.CubicSpline over both columns, plus the panel
    samples of the trajectory they were integrated on."""

    grid: Grid
    z: np.ndarray = field(repr=False)
    lam: np.ndarray = field(repr=False)
    panels: Panels = field(repr=False, compare=False)

    @property
    def times(self) -> np.ndarray:
        return self.grid.main_nodes

    @property
    def z_b(self) -> float:
        return float(self.z[-1])

    @property
    def lambda_b(self) -> float:
        return float(self.lam[-1])

    @cached_property
    def _spline(self):
        """One spline over the columns (z, lambda)."""
        return CubicSpline(self.times, np.column_stack([self.z, self.lam]), "not-a-knot")

    def _interp(self, col, t):
        ts = np.asarray(t, dtype=float)
        check_domain(self.grid.a, self.grid.b, np.atleast_1d(ts))
        out = self._spline(ts)[..., col]
        return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out

    def z_at(self, t):
        return self._interp(0, t)

    def lambda_at(self, t):
        return self._interp(1, t)

    def csv(self) -> str:
        return csv_text(["t", "z", "lambda"], [self.times, self.z, self.lam])

    def samples(self, traj: Trajectory) -> Panels:
        """The panel samples this z-path was integrated on, with z and lambda
        there filled in on first use. traj must be the very trajectory object
        it was integrated along; a z-path is never re-sampled."""
        P = self.panels
        if traj is not P.traj:
            raise InvalidTrajectory("z-path was integrated along a different trajectory")
        if "z" not in P.bind:
            # the plan's located samples: P.times, on the nodes of the z-path
            (zl,) = self._spline.read_located(P.plan.main.head(3 * P.k), (0,))
            P.z, P.lam = np.ascontiguousarray(zl.T)
            P.bind["z"] = P.z
        return P


def integrate_z(problem: HerglotzProblem, traj: Trajectory) -> ZPath:
    """Integrate z and log-lambda over [a, b] along the given trajectory."""
    g = problem.grid
    P = Panels(problem, traj)
    coeffs = expr.affine(problem.lagrangian, "z", P.bind)
    path = None if coeffs is None else _affine_stages(P, problem.gamma, *coeffs)
    # L not affine in z, or a non-finite value on the way: the stage walk decides
    zs, mus = _stages(problem, P) if path is None else path
    with np.errstate(over="ignore"):
        lam = np.exp(mus[P.node_pos])
    if not np.all(np.isfinite(lam)):
        raise NonFinite("integrating factor overflowed")
    return ZPath(grid=g, z=zs[P.node_pos], lam=lam, panels=P)


def _stages(problem: HerglotzProblem, P: Panels):
    """z and mu = log lambda at every stop, by RK4 stages that walk the whole
    tree of L on the floats of the stage's sample and z. A non-finite z or mu
    raises NonFinite at the first t it reaches."""
    k, hs, ts = P.k, P.hs, P.times
    L = problem.lagrangian
    cols = [(name, P.bind[name].tolist()) for name in ("t", "x", "dx", "xtau", "dxtau")]
    b: dict = {}

    def stage(j, zv):
        if not isfinite(zv):
            raise NonFinite(f"z integration produced a non-finite value at t={ts[j]}")
        for name, col in cols:
            b[name] = col[j]
        b["z"] = zv
        val, dz = expr.value_and_partial(L, "z", b)
        return float(val), -float(dz)

    zs = np.empty(k + 1)
    mus = np.empty(k + 1)
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
        if not (isfinite(z) and isfinite(mu)):
            raise NonFinite(f"z integration produced a non-finite value at t={ts[2 * k + i]}")
        zs[i + 1] = z
        mus[i + 1] = mu
    return zs, mus


def _affine_stages(P: Panels, gamma: float, A: np.ndarray, B: np.ndarray):
    """The same stages for L = A + B z, from the columns A and B at the
    samples, with no tree walk; None if z or mu meets a non-finite value.
    mu' = -B does not depend on z, so its RK4 sums are one running sum, and
    z runs the stage formulas on floats."""
    k, hs = P.k, P.hs
    lo, mid, hi = slice(0, k), slice(k, 2 * k), slice(2 * k, 3 * k)
    m = -B
    with np.errstate(over="ignore", invalid="ignore"):
        mus = np.cumsum(np.concatenate(
            ([0.0], hs * (m[lo] + 2.0 * m[mid] + 2.0 * m[mid] + m[hi]) / 6.0)))
    z = float(gamma)
    zs = [z]
    for h, al, am, ar, bl, bm, br in zip(
            hs.tolist(), *(c[s].tolist() for c in (A, B) for s in (lo, mid, hi))):
        z1 = al + bl * z
        z2 = am + bm * (z + 0.5 * h * z1)
        z3 = am + bm * (z + 0.5 * h * z2)
        z4 = ar + br * (z + h * z3)
        z = z + h * (z1 + 2.0 * z2 + 2.0 * z3 + z4) / 6.0
        zs.append(z)
    zs = np.array(zs)
    if np.all(np.isfinite(zs)) and np.all(np.isfinite(mus)):
        return zs, mus
    return None


class Samples:
    """The Lagrangian at a set of trajectory samples: L itself or one of its
    partials, evaluated by name under the bindings on first use and kept on
    the instance. The one place Lagrangian tables are filled; the panel
    samples and the node tables of the condition checks are its two kinds."""

    def __init__(self, lagrangian: expr.Expression, bind: dict):
        self.lagrangian = lagrangian
        self.bind = bind
        self._tables: dict = {}

    def table(self, name: str) -> np.ndarray:
        """L itself (name "L") or its partial in name at the samples,
        contiguous even where the expression is constant, so sums and dot
        products over it round the same way whatever its shape."""
        if name not in self._tables:
            L, bind = self.lagrangian, self.bind
            v = expr.evaluate(L, bind) if name == "L" else expr.partial(L, name, bind)
            self._tables[name] = np.ascontiguousarray(np.broadcast_to(
                np.asarray(v, dtype=float), bind["t"].shape))
        return self._tables[name]


class PanelPlan:
    """The geometry of the Simpson panels of a grid for one set of trajectory
    breakpoints, which every trajectory and direction read on those panels
    shares (panel_plan): the node positions among the stops, the panel steps
    hs, the sample times, their delayed images and the inside mask, and the
    samples located once on the grid's nodes. Its arrays are read-only.

    main locates the sample times, then the delayed images inside [a, b], on
    the nodes of [a, b]: a sampled trajectory's [a, b] spline reads there,
    the z-path at its first 3k rows, and the spline adjoint of the gradient
    scatters there in that order. hist locates the other delayed images on
    the history nodes (None when tau = 0). Both and the adjoint's band are
    filled in on first use.
    """

    def __init__(self, problem: HerglotzProblem, traj: Trajectory):
        g = self.grid = problem.grid
        stops, node_pos = integration_stops(problem, traj)
        lefts, rights = stops[:-1], stops[1:]
        self.k = k = len(lefts)
        times = np.concatenate([lefts, 0.5 * (lefts + rights), rights])
        anchors = np.sort(np.concatenate(
            [g.nodes, np.asarray(traj.breakpoints, dtype=float)]))
        delayed = _snap(times - g.tau, anchors, 1e-9 * g.h)
        # delayed images that fall inside [a, b], where the solver's spline
        # adjoint and the group generators act; rights take the left limit, so
        # exactly s - tau = a counts as outside there and a kink at s = a + tau
        # never leaks across its panel boundary
        inside = delayed >= g.a
        inside[2 * k:] = delayed[2 * k:] > g.a
        self.node_pos, self.hs, self.times, self.delayed, self.inside = (
            node_pos, rights - lefts, times, delayed, inside)
        for arr in (node_pos, self.hs, times, delayed, inside):
            arr.setflags(write=False)

    @cached_property
    def main(self) -> Located:
        return locate(self.grid.main_nodes,
                      np.concatenate([self.times, self.delayed[self.inside]]))

    @cached_property
    def hist(self) -> Optional[Located]:
        g = self.grid
        return locate(g.nodes[: g.m + 1], self.delayed[~self.inside]) if g.m else None

    @cached_property
    def band(self) -> np.ndarray:
        return adjoint_band(self.grid.main_nodes)


def panel_plan(problem: HerglotzProblem, traj: Trajectory) -> PanelPlan:
    """The panel plan of the problem's grid for the trajectory's breakpoints.
    A sampled trajectory on the problem's very grid has the grid's own
    breakpoints, so its plan is built on first use and kept on the grid
    (Grid.plan_slot); any other trajectory gets a plan of its own."""
    g = problem.grid
    if not (isinstance(traj, SampledTrajectory) and traj.grid is g):
        return PanelPlan(problem, traj)
    if not g.plan_slot:
        g.plan_slot[:] = [PanelPlan(problem, traj)]
    return g.plan_slot[0]


class Panels(Samples):
    """Breakpoint-aligned Simpson panels of [a, b] sampled once along a
    trajectory: the one sampler behind the RK4 stages of integrate_z, the
    first variation, the solver gradient and the invariance defect. The
    z-path carries it (ZPath.samples), which fills in z and lambda here. The
    geometry comes from the grid's panel plan (plan), shared by every
    trajectory on the grid.

    Sample arrays are ordered panel lefts, then midpoints, then rights (k of
    each). Trajectory reads are one-sided: lefts and midpoints take the right
    limit, rights the left limit, and the delayed images follow the same
    sides.
    """

    def __init__(self, problem: HerglotzProblem, traj: Trajectory):
        plan = self.plan = panel_plan(problem, traj)
        self.traj = traj
        self.k, self.hs, self.node_pos = plan.k, plan.hs, plan.node_pos
        self.times, self.delayed, self.inside = plan.times, plan.delayed, plan.inside
        self.x, self.dx, self.xtau, self.dxtau = self.read(traj)
        super().__init__(problem.lagrangian, {
            "t": self.times, "x": self.x, "dx": self.dx,
            "xtau": self.xtau, "dxtau": self.dxtau})

    def read(self, traj: Trajectory):
        """x, x', x(s - tau) and x'(s - tau) of traj at the samples s, with
        the one-sided limits of the class docstring. A sampled trajectory on
        the plan's very grid reads at the plan's located samples, one read
        per spline; any other trajectory is searched afresh."""
        plan, k, inside = self.plan, self.k, self.inside
        if isinstance(traj, SampledTrajectory) and traj.grid is plan.grid:
            # on the sides above: every time reads the [a, b] spline, and a
            # delayed image reads it exactly when it is inside
            x, dx, xh, dxh = traj.read_located(plan.main, plan.hist)
            out = [x[:3 * k], dx[:3 * k], np.empty(3 * k), np.empty(3 * k)]
            for o, main, hist in ((out[2], x, xh), (out[3], dx, dxh)):
                o[inside] = main[3 * k:]
                if hist is not None:
                    o[~inside] = hist
            return out
        out = [np.empty_like(self.times) for _ in range(4)]
        for sl, side in ((slice(0, 2 * k), "right"), (slice(2 * k, 3 * k), "left")):
            out[0][sl], out[1][sl] = traj.eval_many(
                self.times[sl], side=side, want_ddx=False)
            out[2][sl], out[3][sl] = traj.eval_many(
                self.delayed[sl], side=side, want_ddx=False)
        return out

    def simpson(self, f: np.ndarray) -> np.ndarray:
        """Composite Simpson integral of sampled f over each panel."""
        k = self.k
        return self.hs / 6.0 * (f[:k] + 4.0 * f[k:2 * k] + f[2 * k:])


def first_variation(problem: HerglotzProblem, traj: Trajectory, zpath: ZPath,
                    eta: VariationDirection) -> float:
    """Directional derivative zeta(b) of z(b) along the admissible direction,
    read by the panel sampler like the trajectory: its zero history and the
    left limits at the panel rights keep the delayed terms zero left of a."""
    P = zpath.samples(traj)
    eta_s, deta_s, eta_d, deta_d = P.read(eta)
    f = P.lam * (P.table("x") * eta_s + P.table("dx") * deta_s
                 + P.table("xtau") * eta_d + P.table("dxtau") * deta_d)
    total = float(np.sum(P.simpson(f)))
    if not isfinite(total):
        raise NonFinite("first variation is non-finite")
    return total / zpath.lambda_b
