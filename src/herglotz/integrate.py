"""Delay-aware integration: the z-path, the integrating factor, first variation.

The functional value z(b) is produced by integrating

    z'(t) = L(t, x(t), x'(t), x(t-tau), x'(t-tau), z(t)),   z(a) = gamma

with classic 4-stage Runge-Kutta at the grid step, restarted at every
trajectory breakpoint and at every breakpoint shifted by +tau, so no stage
straddles a kink of the integrand. Delayed arguments are read from the
trajectory; since tau sits exactly on the grid, delayed reads at nodes land
on nodes. Stage times at substep ends use one-sided trajectory limits so the
integrand stays smooth within each substep.

The integrating factor lambda(t) = exp(-int_a^t dL/dz) is accumulated in the
same pass as log-lambda (positivity by construction); if L does not depend on
z the integrand is exactly zero and lambda is exactly one at every node.

The first variation zeta(b) of z(b) along an admissible direction eta is the
closed integral

    zeta(b) = (1/lambda(b)) int_a^b lambda(s) [ L_x eta + L_dx eta'
              + L_xtau eta(s-tau) + L_dxtau eta'(s-tau) ] ds

with eta identically zero left of a, evaluated by composite Simpson on
breakpoint-aligned panels (grid intervals split at kinks, midpoint sampled).
These panels are the RK4 substeps, so one sampler serves both: Panels reads
the trajectory once, one-sided, at the panel ends and midpoints and at their
delayed images; integrate_z runs its RK4 stages on those reads and the z-path
carries them on. The first variation, the solver gradient and the invariance
defect take them from the z-path, with z and lambda there and the Lagrangian
partials filled in on first use, and are each a short formula over them.
All operations are pure (a fill-in on first use writes the same values
whichever caller comes first); concurrent integrations are safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import isfinite

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from . import expr
from .errors import FixedNode, InvalidTrajectory, NonFinite, OutOfDomain
from .reportio import csv_text
from .trajectory import Grid, HerglotzProblem, Trajectory


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
    """z and lambda at the nodes of [a, b], with spline interpolation between,
    plus the panel samples of the trajectory they were integrated on."""

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
    def _z_spline(self):
        bc = "not-a-knot" if len(self.z) >= 4 else "natural"
        return CubicSpline(self.times, self.z, bc_type=bc)

    @cached_property
    def _lam_spline(self):
        bc = "not-a-knot" if len(self.lam) >= 4 else "natural"
        return CubicSpline(self.times, self.lam, bc_type=bc)

    def _check(self, ts: np.ndarray) -> None:
        g = self.grid
        slack = 1e-9 * (g.b - g.a)
        if np.any(ts < g.a - slack) or np.any(ts > g.b + slack):
            raise OutOfDomain(f"time outside [{g.a}, {g.b}]")

    def _interp(self, spline, stored, t):
        ts = np.asarray(t, dtype=float)
        self._check(np.atleast_1d(ts))
        out = spline(ts)
        nodes = self.times
        idx = np.clip(np.searchsorted(nodes, ts), 0, len(nodes) - 1)
        exact = nodes[idx] == ts
        out = np.where(exact, stored[idx], out)
        return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out

    def z_at(self, t):
        return self._interp(self._z_spline, self.z, t)

    def lambda_at(self, t):
        return self._interp(self._lam_spline, self.lam, t)

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
            P.z = self.z_at(P.times)
            P.lam = self.lambda_at(P.times)
            P.bind["z"] = P.z
        return P


def integrate_z(problem: HerglotzProblem, traj: Trajectory) -> ZPath:
    """Integrate z and log-lambda over [a, b] along the given trajectory."""
    g = problem.grid
    P = Panels(problem, traj)
    k, hs, ts = P.k, P.hs, P.times
    x, dx, xt, dxt = P.x, P.dx, P.xtau, P.dxtau
    L = problem.lagrangian
    b: dict = {"t": 0.0, "x": 0.0, "dx": 0.0, "xtau": 0.0, "dxtau": 0.0, "z": 0.0}

    def stage(j, zv):
        b["t"] = ts[j]
        b["x"] = x[j]
        b["dx"] = dx[j]
        b["xtau"] = xt[j]
        b["dxtau"] = dxt[j]
        b["z"] = zv
        val, dz = expr.value_and_partial(L, "z", b)
        return float(val), -float(dz)

    # z and mu at every stop; the nodes are picked out at the end
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
    lam = np.exp(mus[P.node_pos])
    if not np.all(np.isfinite(lam)):
        raise NonFinite("integrating factor overflowed")
    return ZPath(grid=g, z=zs[P.node_pos], lam=lam, panels=P)


@dataclass
class VariationDirection:
    """Admissible direction: values at free nodes, zero on [a-tau, a] and at b.

    Evaluation between nodes goes through the same natural-spline machinery
    as sampled trajectories, so a unit direction is exactly the change of
    trajectory produced by perturbing that node.
    """

    grid: Grid
    main_values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.main_values, dtype=float).copy()
        if vals.shape != (self.grid.n + 1,):
            raise InvalidTrajectory(
                f"direction needs {self.grid.n + 1} values on [a, b], got {vals.shape}")
        vals[0] = 0.0
        vals[-1] = 0.0
        vals.setflags(write=False)
        object.__setattr__(self, "main_values", vals)

    @classmethod
    def from_free(cls, grid: Grid, free_values) -> "VariationDirection":
        vals = np.zeros(grid.n + 1)
        free = np.asarray(free_values, dtype=float)
        if free.shape != (grid.n - 1,):
            raise InvalidTrajectory(
                f"expected {grid.n - 1} free values, got {free.shape}")
        vals[1:-1] = free
        return cls(grid, vals)

    @classmethod
    def unit(cls, grid: Grid, node_index: int) -> "VariationDirection":
        """Direction with value 1 at one free node (global node index)."""
        if not (grid.m < node_index < grid.n + grid.m):
            raise FixedNode(f"node {node_index} is pinned")
        vals = np.zeros(grid.n + 1)
        vals[node_index - grid.m] = 1.0
        return cls(grid, vals)

    @cached_property
    def _spline(self):
        return CubicSpline(self.grid.main_nodes, self.main_values, bc_type="natural")

    def eval_many(self, ts, side: str = "right"):
        """eta and eta' at the given times; zero left of a. At exactly t=a the
        value is zero either way, but the slope is one-sided: side="left"
        returns the flat history slope 0, side="right" the spline slope."""
        ts = np.asarray(ts, dtype=float)
        eta = np.zeros_like(ts)
        deta = np.zeros_like(ts)
        inside = ts > self.grid.a if side == "left" else ts >= self.grid.a
        if np.any(inside):
            tm = ts[inside]
            eta[inside] = self._spline(tm)
            deta[inside] = self._spline(tm, 1)
            nodes = self.grid.main_nodes
            idx = np.clip(np.searchsorted(nodes, ts), 0, len(nodes) - 1)
            exact = (nodes[idx] == ts) & inside
            eta[exact] = self.main_values[idx[exact]]
        return eta, deta


def spline_adjoint(nodes: np.ndarray, ts: np.ndarray, wv: np.ndarray,
                   wd: np.ndarray) -> np.ndarray:
    """Node weights g with g . y = sum(wv * s(ts) + wd * s'(ts)) for the
    natural cubic spline s through (nodes, y), i.e. the transpose of the
    spline evaluation behind VariationDirection.

    On interval i, with A = (t_{i+1} - t)/h_i and B = 1 - A,
        s  = A y_i + B y_{i+1} + h_i^2/6 [(A^3 - A) M_i + (B^3 - B) M_{i+1}]
        s' = (y_{i+1} - y_i)/h_i + h_i/6 [(1 - 3A^2) M_i + (3B^2 - 1) M_{i+1}]
    and the interior moments solve T M = R y with T symmetric tridiagonal
    (M = 0 at both ends). So g is a scatter of the y-coefficients plus
    R^T T^{-1} applied to the scattered M-coefficients: O(len(ts) + n).
    """
    n = len(nodes) - 1
    h = np.diff(nodes)
    i = np.clip(np.searchsorted(nodes, ts, side="right") - 1, 0, n - 1)
    hi = h[i]
    B = (ts - nodes[i]) / hi
    A = 1.0 - B
    slope = wd / hi
    g = (np.bincount(i, A * wv - slope, n + 1)
         + np.bincount(i + 1, B * wv + slope, n + 1))
    cm_lo = hi * (hi * (A**3 - A) * wv + (1.0 - 3.0 * A**2) * wd) / 6.0
    cm_hi = hi * (hi * (B**3 - B) * wv + (3.0 * B**2 - 1.0) * wd) / 6.0
    cm = np.bincount(i, cm_lo, n + 1) + np.bincount(i + 1, cm_hi, n + 1)
    # row k of T M = R y: h_{k-1} M_{k-1} + 2(h_{k-1} + h_k) M_k + h_k M_{k+1}
    #                     = 6 [(y_{k+1} - y_k)/h_k - (y_k - y_{k-1})/h_{k-1}]
    # general banded solve: solveh_banded rejects the 1x1 system of n = 2
    band = np.zeros((3, n - 1))
    band[0, 1:] = band[2, :-1] = h[1:-1]
    band[1] = 2.0 * (h[:-1] + h[1:])
    q = 6.0 * solve_banded((1, 1), band, cm[1:-1])
    g[2:] += q / h[1:]
    g[1:-1] -= q * (1.0 / h[:-1] + 1.0 / h[1:])
    g[:-2] += q / h[:-1]
    return g


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


class Panels(Samples):
    """Breakpoint-aligned Simpson panels of [a, b] sampled once along a
    trajectory: the one sampler behind the RK4 stages of integrate_z, the
    first variation, the solver gradient and the invariance defect. The
    z-path carries it (ZPath.samples), which fills in z and lambda here.

    Sample arrays are ordered panel lefts, then midpoints, then rights (k of
    each). Trajectory reads are one-sided: lefts and midpoints take the right
    limit, rights the left limit, and the delayed images follow the same
    sides.
    """

    def __init__(self, problem: HerglotzProblem, traj: Trajectory):
        g = problem.grid
        self.traj = traj
        stops, self.node_pos = integration_stops(problem, traj)
        lefts, rights = stops[:-1], stops[1:]
        self.k = k = len(lefts)
        self.hs = rights - lefts
        self.times = np.concatenate([lefts, 0.5 * (lefts + rights), rights])
        anchors = np.sort(np.concatenate(
            [g.nodes, np.asarray(traj.breakpoints, dtype=float)]))
        self.delayed = _snap(self.times - g.tau, anchors, 1e-9 * g.h)
        self.x, self.dx, self.xtau, self.dxtau = (np.empty_like(self.times)
                                                  for _ in range(4))
        for sl, side in ((slice(0, 2 * k), "right"), (slice(2 * k, 3 * k), "left")):
            self.x[sl], self.dx[sl] = traj.eval_many(
                self.times[sl], side=side, want_ddx=False)
            self.xtau[sl], self.dxtau[sl] = traj.eval_many(
                self.delayed[sl], side=side, want_ddx=False)
        super().__init__(problem.lagrangian, {
            "t": self.times, "x": self.x, "dx": self.dx,
            "xtau": self.xtau, "dxtau": self.dxtau})
        # delayed images that fall inside [a, b], where variation directions
        # and group generators live; rights take the left limit, so exactly
        # s - tau = a counts as outside there and a kink at s = a + tau never
        # leaks across its panel boundary
        self.inside = self.delayed >= g.a
        self.inside[2 * k:] = self.delayed[2 * k:] > g.a

    def simpson(self, f: np.ndarray) -> np.ndarray:
        """Composite Simpson integral of sampled f over each panel."""
        k = self.k
        return self.hs / 6.0 * (f[:k] + 4.0 * f[k:2 * k] + f[2 * k:])


def first_variation(problem: HerglotzProblem, traj: Trajectory, zpath: ZPath,
                    eta: VariationDirection) -> float:
    """Directional derivative zeta(b) of z(b) along the admissible direction."""
    P = zpath.samples(traj)
    eta_s, deta_s = eta.eval_many(P.times)
    eta_d, deta_d = (np.where(P.inside, v, 0.0) for v in eta.eval_many(P.delayed))
    f = P.lam * (P.table("x") * eta_s + P.table("dx") * deta_s
                 + P.table("xtau") * eta_d + P.table("dxtau") * deta_d)
    total = float(np.sum(P.simpson(f)))
    if not isfinite(total):
        raise NonFinite("first variation is non-finite")
    return total / zpath.lambda_b
