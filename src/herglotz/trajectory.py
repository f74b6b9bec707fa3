"""Candidate trajectories x on [a-tau, b] over a delay-aligned uniform grid.

The grid puts tau exactly on the mesh (tau = m*h), so delayed reads land on
nodes and no interpolation error enters the delayed terms.

Two backends:

* Sampled: node values with natural cubic splines, one over the history
  segment [a-tau, a] and one over [a, b], joined continuously at t=a. The
  split keeps the slope break at t=a representable: the problems this package
  targets pin x on the history, and their minimizers generically enter [a, b]
  with a different slope. A single C2 spline across t=a would smear that
  corner and bias every downstream quantity at O(h). An admissible variation
  direction is a sampled trajectory too (VariationDirection), with zero node
  values on [a-tau, a] and at b. CubicSpline is the package's one spline
  through node values (the z-path and the residual pairing of conditions use
  it too), and spline_adjoint is the transpose of its natural-end build and
  read, sharing the slope matrix and its end rows with it. A read locates its
  samples on the nodes (locate: piece, offset, node hits) and then reads
  there; a location depends on the nodes alone, so samples fixed by the grid
  (integrate's panel plan) are located once and read through every spline on
  the same nodes: all trajectories and directions on the grid
  (SampledTrajectory.read_located), the z-path, and the adjoint
  (located_adjoint, with the band of adjoint_band).
* PiecewiseAnalytic: ordered breakpoints with a closed-form expression in t
  per piece; value and first derivative are exact (dual numbers), the second
  derivative applies the 5-point rows of fdiff to the exact first derivative
  at step h/16 (a fifth of the piece if that is shorter), with the read time
  itself as window point p = 0..4, chosen so the window stays in the piece.

At a breakpoint, evaluation uses the right limit; quadrature internals may
ask for the left limit via side="left". Trajectories are immutable; perturb
returns a new value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import perm
from typing import Optional, Sequence, Union

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from . import expr
from .errors import (
    BadGuess,
    BadInterval,
    DelayNotAligned,
    FixedNode,
    HerglotzError,
    InvalidTrajectory,
    OutOfDomain,
)
from .fdiff import ROWS
from .reportio import csv_text


@dataclass(frozen=True)
class Grid:
    """Uniform mesh on [a-tau, b]: h=(b-a)/n, tau=m*h, nodes t_i = a + (i-m)h.

    plan_slot holds at most one integrate.PanelPlan, filled on first use: the
    sample geometry that every sampled trajectory on this grid shares."""

    a: float
    b: float
    tau: float
    n: int
    h: float
    m: int
    nodes: np.ndarray = field(repr=False, compare=False)
    plan_slot: list = field(default_factory=list, init=False, repr=False, compare=False)

    @property
    def main_nodes(self) -> np.ndarray:
        """Nodes on [a, b]."""
        return self.nodes[self.m:]

    @property
    def free_indices(self) -> range:
        """Indices of decision nodes: strictly between a and b."""
        return range(self.m + 1, self.n + self.m)


def build_grid(a: float, b: float, tau: float, n: int) -> Grid:
    a, b, tau = float(a), float(b), float(tau)
    if not (np.isfinite(a) and np.isfinite(b) and np.isfinite(tau)):
        raise BadInterval("interval data must be finite")
    if not a < b:
        raise BadInterval(f"need a < b, got a={a}, b={b}")
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise BadInterval(f"need an integer n >= 2, got {n!r}")
    if tau < 0 or tau >= b - a:
        raise BadInterval(f"need 0 <= tau < b - a, got tau={tau}")
    h = (b - a) / n
    ratio = tau / h
    m = int(round(ratio))
    if abs(ratio - m) > 1e-12 * max(1.0, abs(ratio)):
        raise DelayNotAligned(f"tau/h = {ratio} is not an integer (h={h})")
    nodes = a + (np.arange(n + m + 1, dtype=float) - m) * h
    nodes[-1] = b
    nodes.setflags(write=False)
    return Grid(a=a, b=b, tau=tau, n=int(n), h=h, m=m, nodes=nodes)


def check_domain(lo: float, hi: float, ts: np.ndarray) -> None:
    """Raise OutOfDomain unless every time in ts lies in [lo, hi], up to a
    slack of 1e-9 (hi - lo); a NaN time lies outside."""
    slack = 1e-9 * (hi - lo)
    inside = (ts >= lo - slack) & (ts <= hi + slack)
    if not np.all(inside):
        raise OutOfDomain(f"t={float(ts[~inside][0])} outside [{lo}, {hi}]")


def solve_tridiagonal(band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with A x = rhs for the tridiagonal A held in band, in the (1, 1)
    banded layout (band[0, 1:] the superdiagonal, band[1] the diagonal,
    band[2, :-1] the subdiagonal); rhs has one or more columns. One call of
    LAPACK's gtsv, as scipy.linalg.solve_banded makes for this layout, with
    the same bits. Neither argument is modified; a singular A raises
    numpy.linalg.LinAlgError."""
    if len(rhs) == 1:  # gtsv rejects a 1x1 system
        if band[1, 0] == 0.0:
            raise LinAlgError("singular matrix")
        return rhs / band[1, 0]
    *_, x, info = dgtsv(band[2, :-1], band[1], band[0, 1:], rhs)
    if info != 0:
        raise LinAlgError(f"singular matrix (gtsv info {info})")
    return x


def _slope_band(x: np.ndarray, bc: str):
    """The matrix of the slope system of the cubic spline through nodes x, in
    solve_tridiagonal's layout, and whether its end rows are not-a-knot:
    the one place the end rows are chosen, for the build and its transpose.
    Not-a-knot needs 4 nodes; with fewer the ends are natural."""
    if bc not in ("natural", "not-a-knot"):
        raise ValueError(f"unknown spline end condition {bc!r}")
    dx = np.diff(x)
    band = np.zeros((3, len(x)))
    band[0, 2:] = dx[:-1]
    band[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    band[2, :-2] = dx[1:]
    knot = bc == "not-a-knot" and len(x) >= 4
    if knot:
        band[1, 0], band[0, 1] = dx[1], x[2] - x[0]
        band[1, -1], band[2, -2] = dx[-2], x[-1] - x[-3]
    else:
        band[1, 0], band[0, 1] = 2 * dx[0], dx[0]
        band[1, -1], band[2, -2] = 2 * dx[-1], dx[-1]
    return band, knot


@dataclass(frozen=True)
class Located:
    """Samples t located on the nodes x of a spline: the piece i of each
    (x[i] <= t < x[i+1], the end pieces extended), its offset z = t - x[i],
    and the samples equal to a node (rows, ascending) with that node (at),
    where a value read returns the stored value. It depends on x alone, so
    one location serves every spline through the same nodes; its arrays are
    read-only."""

    i: np.ndarray
    z: np.ndarray
    rows: np.ndarray
    at: np.ndarray

    def head(self, count: int) -> "Located":
        """The location of the first count samples."""
        cut = int(np.searchsorted(self.rows, count))
        return Located(self.i[:count], self.z[:count], self.rows[:cut], self.at[:cut])


def locate(x: np.ndarray, t: np.ndarray) -> Located:
    """Locate the samples t (one axis) on the ascending nodes x: one interval
    search."""
    i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(x) - 2)
    # the right end x_n is the end of the last piece
    at = i + (t == x[-1])
    rows = np.flatnonzero(t == x[at])
    loc = Located(i, t - x[i], rows, at[rows])
    for arr in (loc.i, loc.z, loc.rows, loc.at):
        arr.setflags(write=False)
    return loc


class CubicSpline:
    """C2 cubic spline through (x, y) with "natural" or "not-a-knot" ends;
    y holds one value, or one row of columns, per node.
    CubicSpline(x, y, bc)(ts, nu) reads the nu-th derivative (nu = 0, 1, 2)
    at ts, and .read(ts, nus) several derivatives after one interval search
    (locate), which .read_located reuses for samples located beforehand;
    reads outside [x_0, x_n] extend the end pieces, and a value read exactly
    at a node returns the stored value.

    The build and the read are scipy.interpolate.CubicSpline's, step for step,
    so they give its bits (its not-a-knot cases for 2 and 3 nodes aside): the C2
    conditions give a tridiagonal system in the node slopes s, and piece i is
    y_i + s_i z + c1 z^2 + c0 z^3 with z = t - x_i, summed by powers of z.
    """

    def __init__(self, x, y, bc: str):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        self._cols = y.shape[1:]
        y = y.reshape(len(x), -1)
        dx = np.diff(x)[:, None]
        slope = np.diff(y, axis=0) / dx
        band, knot = _slope_band(x, bc)
        b = np.empty_like(y)
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        if knot:
            d0, d1 = x[2] - x[0], x[-1] - x[-3]
            b[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / d0
            b[-1] = (dx[-1]**2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
        else:
            b[0] = 3 * (y[1] - y[0])
            b[-1] = 3 * (y[-1] - y[-2])
        s = solve_tridiagonal(band, b)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x = x
        self.y = y
        # one row of coefficients (c0, c1, c2, c3) per piece
        self.c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]), axis=1)

    def __call__(self, ts, nu: int = 0) -> np.ndarray:
        return self.read(ts, (nu,))[0]

    def read(self, ts, nus) -> tuple:
        """The derivatives of orders nus at ts, one array each, with the bits
        of separate calls: locate ts on the nodes, then read there."""
        ts = np.asarray(ts, dtype=float)
        out = self.read_located(locate(self.x, ts.reshape(-1)), nus)
        return tuple(r.reshape(ts.shape + self._cols) for r in out)

    def read_located(self, loc: Located, nus) -> tuple:
        """The derivatives of orders nus at samples located on this spline's
        nodes, one array per order with a row per sample."""
        c = np.take(self.c, loc.i, axis=0)
        z = loc.z[:, None]
        # the running product 1, z, z*z, (z*z)*z, shared by every order
        z2 = z * z
        powers = (1.0, z, z2, z2 * z)
        out = []
        for nu in nus:
            # PPoly's sum by powers of z; Horner's scheme would round differently
            res = np.zeros((len(z), c.shape[2]))
            for k in range(nu, 4):
                res += c[:, 3 - k] * powers[k - nu] * perm(k, nu)
            if nu == 0:
                # a copy, not z = 0, so a stored -0.0 stays -0.0
                res[loc.rows] = self.y[loc.at]
            out.append(res.reshape((len(z),) + self._cols))
        return tuple(out)


class SampledTrajectory:
    """Node values; natural cubic splines over [a-tau, a] and [a, b]."""

    def __init__(self, grid: Grid, values: Sequence[float], _hist=None):
        values = np.asarray(values, dtype=float).copy()
        if values.shape != grid.nodes.shape:
            raise InvalidTrajectory(
                f"expected {grid.nodes.shape[0]} node values, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise InvalidTrajectory("node values must be finite")
        values.setflags(write=False)
        self.grid = grid
        self.values = values
        m = grid.m
        if m >= 1:
            self._hist = _hist if _hist is not None else CubicSpline(
                grid.nodes[: m + 1], values[: m + 1], "natural")
            self.breakpoints: tuple = (grid.a,)
        else:
            self._hist = None
            self.breakpoints = ()
        self._main = CubicSpline(grid.main_nodes, values[m:], "natural")

    def _with_values(self, values: np.ndarray) -> "SampledTrajectory":
        return SampledTrajectory(self.grid, values, _hist=self._hist)

    def eval_many(self, ts, side: str = "right", want_ddx: bool = True):
        ts = np.asarray(ts, dtype=float)
        check_domain(self.grid.nodes[0], self.grid.b, ts)
        g = self.grid
        if self._hist is None:
            use_main = np.ones(ts.shape, dtype=bool)
        elif side == "left":
            use_main = ts > g.a
        else:
            use_main = ts >= g.a
        x = np.empty_like(ts)
        dx = np.empty_like(ts)
        ddx = np.empty_like(ts) if want_ddx else None
        nus = (0, 1, 2) if want_ddx else (0, 1)
        for mask, spline in ((use_main, self._main), (~use_main, self._hist)):
            if not np.any(mask):
                continue
            for out, val in zip((x, dx, ddx), spline.read(ts[mask], nus)):
                out[mask] = val
        return (x, dx, ddx) if want_ddx else (x, dx)

    def read_located(self, main: Located, hist: Optional[Located]):
        """x and x' at samples located on the nodes of [a, b] (main), then at
        samples located on the history nodes (hist; None when tau = 0): one
        read of each spline, with the bits of eval_many on the same sides."""
        x, dx = self._main.read_located(main, (0, 1))
        if hist is None:
            return x, dx, None, None
        return (x, dx) + self._hist.read_located(hist, (0, 1))

    def eval(self, t: float, side: str = "right"):
        x, dx, ddx = self.eval_many(np.array([float(t)]), side=side)
        return float(x[0]), float(dx[0]), float(ddx[0])


class PiecewiseTrajectory:
    """Closed-form pieces covering [a-tau, b]; exact x and dx per piece."""

    def __init__(self, grid: Grid, pieces: Sequence):
        self.grid = grid
        parsed = []
        for t0, t1, e in pieces:
            if isinstance(e, str):
                e = expr.parse(e)
            extra = expr.variables_in(e) - {"t"}
            if extra:
                raise InvalidTrajectory(
                    f"piece expressions may only use t, found {sorted(extra)}")
            parsed.append((float(t0), float(t1), e))
        if not parsed:
            raise InvalidTrajectory("no pieces given")
        span = grid.b - grid.nodes[0]
        tol = 1e-9 * max(1.0, span)
        if abs(parsed[0][0] - grid.nodes[0]) > tol or abs(parsed[-1][1] - grid.b) > tol:
            raise InvalidTrajectory("pieces must cover [a - tau, b]")
        for (t0, t1, e) in parsed:
            if t1 - t0 < grid.h / 4:
                raise InvalidTrajectory(f"piece [{t0}, {t1}] shorter than h/4")
        for (p, q) in zip(parsed, parsed[1:]):
            if abs(p[1] - q[0]) > tol:
                raise InvalidTrajectory(f"gap between pieces at t={p[1]}")
            left = expr.evaluate(p[2], {"t": p[1]})
            right = expr.evaluate(q[2], {"t": q[0]})
            if abs(left - right) > 1e-9:
                raise InvalidTrajectory(
                    f"value jump {left - right:.3g} at breakpoint t={q[0]}")
        self.pieces = tuple(parsed)
        self._starts = [p[0] for p in parsed]
        self.breakpoints = tuple(
            q[0] for q in parsed[1:] if grid.nodes[0] < q[0] < grid.b)

    def eval_many(self, ts, side: str = "right", want_ddx: bool = True):
        ts = np.asarray(ts, dtype=float)
        check_domain(self.grid.nodes[0], self.grid.b, ts)
        starts = np.array(self._starts)
        if side == "left":
            idx = np.searchsorted(starts, ts, side="left") - 1
        else:
            idx = np.searchsorted(starts, ts, side="right") - 1
        idx = np.clip(idx, 0, len(self.pieces) - 1)
        x = np.empty_like(ts)
        dx = np.empty_like(ts)
        ddx = np.empty_like(ts) if want_ddx else None
        for i, (t0, t1, e) in enumerate(self.pieces):
            mask = idx == i
            if not np.any(mask):
                continue
            tm = ts[mask]
            xv, dv = expr.value_and_partial(e, "t", {"t": tm})
            x[mask] = xv
            dx[mask] = dv
            if want_ddx:
                # a window of 4s fits at every point of a piece of length >= 5s;
                # reads in the domain slack past an end clip to the end row
                s = min(self.grid.h / 16.0, (t1 - t0) / 5.0)
                p = np.minimum(2, np.floor((tm - t0) / s))
                p = np.clip(np.maximum(p, 4 - np.floor((t1 - tm) / s)), 0, 4).astype(int)
                pts = (tm - p * s)[:, None] + s * np.arange(5)[None, :]
                dmat = np.broadcast_to(np.asarray(
                    expr.partial(e, "t", {"t": pts.ravel()}), dtype=float),
                    pts.size).reshape(pts.shape)
                out = np.empty(len(tm))
                for k in np.unique(p):
                    at = p == k
                    out[at] = dmat[at] @ ROWS[5][k] / s
                ddx[mask] = out
        return (x, dx, ddx) if want_ddx else (x, dx)

    def eval(self, t: float, side: str = "right"):
        x, dx, ddx = self.eval_many(np.array([float(t)]), side=side)
        return float(x[0]), float(dx[0]), float(ddx[0])


class VariationDirection(SampledTrajectory):
    """Admissible direction: a sampled trajectory whose node values vanish on
    [a-tau, a] and at b, given by its n+1 values on [a, b] (the two ends are
    set to zero). It reads through the splines of every sampled trajectory,
    so a unit direction is exactly the change of trajectory produced by
    perturbing that node."""

    def __init__(self, grid: Grid, main_values: Sequence[float]):
        main = np.asarray(main_values, dtype=float)
        if main.shape != (grid.n + 1,):
            raise InvalidTrajectory(
                f"direction needs {grid.n + 1} values on [a, b], got {main.shape}")
        values = np.zeros(len(grid.nodes))
        values[grid.m + 1: -1] = main[1:-1]
        super().__init__(grid, values)

    @classmethod
    def from_free(cls, grid: Grid, free_values) -> "VariationDirection":
        free = np.asarray(free_values, dtype=float)
        if free.shape != (grid.n - 1,):
            raise InvalidTrajectory(
                f"expected {grid.n - 1} free values, got {free.shape}")
        main = np.zeros(grid.n + 1)
        main[1:-1] = free
        return cls(grid, main)


def adjoint_band(nodes: np.ndarray) -> np.ndarray:
    """The slope matrix of the natural spline through nodes, transposed, in
    solve_tridiagonal's layout and read-only: the system spline_adjoint
    solves."""
    band, _ = _slope_band(np.asarray(nodes, dtype=float), "natural")
    band[0, 1:], band[2, :-1] = band[2, :-1].copy(), band[0, 1:].copy()
    band.setflags(write=False)
    return band


def spline_adjoint(nodes: np.ndarray, ts: np.ndarray, wv: np.ndarray,
                   wd: np.ndarray) -> np.ndarray:
    """Node weights g with g . y = sum(wv * s(ts) + wd * s'(ts)) for the
    spline s = CubicSpline(nodes, y, "natural"), i.e. the transpose of the
    [a, b] spline read of SampledTrajectory. It runs the steps of the build
    and the read transposed, in reverse order: O(len(ts) + n).
    """
    x = np.asarray(nodes, dtype=float)
    return located_adjoint(x, locate(x, ts), adjoint_band(x), wv, wd)


def located_adjoint(x: np.ndarray, loc: Located, band: np.ndarray,
                    wv: np.ndarray, wd: np.ndarray) -> np.ndarray:
    """spline_adjoint at samples located on the nodes x beforehand, with the
    transposed band of adjoint_band(x)."""
    n = len(x)
    dx = np.diff(x)
    i, z = loc.i, loc.z
    # the read: s = c3 + c2 z + c1 z^2 + c0 z^3, s' = c2 + 2 c1 z + 3 c0 z^2
    gc0 = np.bincount(i, z * z * (z * wv + 3.0 * wd), n - 1)
    gc1 = np.bincount(i, z * (z * wv + 2.0 * wd), n - 1)
    gc2 = np.bincount(i, z * wv + wd, n - 1)
    gc3 = np.bincount(i, wv, n - 1)
    # the coefficients: c0 = t/dx, c1 = (slope - s_i)/dx - t, c2 = s_i, c3 = y_i
    # with t = (s_i + s_{i+1} - 2 slope)/dx; gt is the t-weight over dx
    gt = (gc0 / dx - gc1) / dx
    gslope = gc1 / dx - 2.0 * gt
    gs = np.zeros(n)
    gs[:-1] = gc2 - gc1 / dx + gt
    gs[1:] += gt
    gy = np.zeros(n)
    gy[:-1] = gc3
    # the slope system A s = b, transposed
    gb = solve_tridiagonal(band, gs)
    # its right-hand side b, with the natural end rows b_0 = 3 (y_1 - y_0) and
    # b_n = 3 (y_n - y_{n-1})
    gslope[:-1] += 3 * dx[1:] * gb[1:-1]
    gslope[1:] += 3 * dx[:-1] * gb[1:-1]
    gy[:2] += np.array([-3.0, 3.0]) * gb[0]
    gy[-2:] += np.array([-3.0, 3.0]) * gb[-1]
    # slope = (y_{i+1} - y_i)/dx
    gq = gslope / dx
    gy[1:] += gq
    gy[:-1] -= gq
    return gy


Trajectory = Union[SampledTrajectory, PiecewiseTrajectory]


def perturb(traj: SampledTrajectory, node_index: int, delta: float) -> SampledTrajectory:
    """New trajectory with values[node_index] += delta (free nodes only)."""
    if not isinstance(traj, SampledTrajectory):
        raise HerglotzError("perturb requires a sampled trajectory")
    g = traj.grid
    if not (g.m < node_index < g.n + g.m):
        raise FixedNode(
            f"node {node_index} is pinned (history segment or the endpoint)")
    values = traj.values.copy()
    values[node_index] += delta
    return traj._with_values(values)


@dataclass(frozen=True)
class HerglotzProblem:
    """Problem data: grid, z(a)=gamma, x(b)=beta, history delta(t), Lagrangian.

    The Lagrangian is an expression in (t, x, dx, xtau, dxtau, z); the history
    is an expression in t alone, defining x on [a-tau, a].
    """

    grid: Grid
    gamma: float
    beta: float
    history: expr.Expression
    lagrangian: expr.Expression
    sense: str = "minimize"

    def __post_init__(self):
        for name, value in (("history", self.history), ("lagrangian", self.lagrangian)):
            if isinstance(value, str):
                object.__setattr__(self, name, expr.parse(value))
        extra = expr.variables_in(self.history) - {"t"}
        if extra:
            raise InvalidTrajectory(f"history may only use t, found {sorted(extra)}")
        bad = expr.variables_in(self.lagrangian) - {"t", "x", "dx", "xtau", "dxtau", "z"}
        if bad:
            raise InvalidTrajectory(f"Lagrangian may not use {sorted(bad)}")
        if not (np.isfinite(self.gamma) and np.isfinite(self.beta)):
            raise BadInterval("gamma and beta must be finite")
        if self.sense not in ("minimize", "maximize"):
            raise BadInterval(f"sense must be minimize or maximize, got {self.sense!r}")

    def history_values(self) -> np.ndarray:
        """delta sampled at the history nodes t_0 .. t_m."""
        ts = self.grid.nodes[: self.grid.m + 1]
        vals = expr.evaluate(self.history, {"t": ts})
        return np.broadcast_to(np.asarray(vals, dtype=float), ts.shape).copy()


def seed_trajectory(problem: HerglotzProblem, guess="linear") -> SampledTrajectory:
    """Sampled start trajectory honoring the pinned nodes.

    "linear" interpolates from delta(a) to beta; "zero" zeroes the interior;
    an explicit array gives all node values and must match the pinned ones.
    """
    g = problem.grid
    values = np.empty(g.n + g.m + 1)
    hist = problem.history_values()
    values[: g.m + 1] = hist
    xa = hist[-1]
    if isinstance(guess, str):
        if guess == "linear":
            values[g.m:] = np.linspace(xa, problem.beta, g.n + 1)
        elif guess == "zero":
            values[g.m + 1: g.n + g.m] = 0.0
        else:
            raise BadGuess(f"unknown seed {guess!r}")
        values[g.m] = xa
        values[-1] = problem.beta
        return SampledTrajectory(g, values)
    explicit = np.asarray(guess, dtype=float)
    if explicit.shape != values.shape:
        raise BadGuess(f"explicit seed needs {values.shape[0]} values")
    scale = max(1.0, float(np.max(np.abs(explicit))))
    if np.max(np.abs(explicit[: g.m + 1] - hist)) > 1e-12 * scale:
        raise BadGuess("explicit seed disagrees with the history on [a - tau, a]")
    if abs(explicit[-1] - problem.beta) > 1e-12 * scale:
        raise BadGuess("explicit seed disagrees with x(b) = beta")
    return SampledTrajectory(g, explicit)


def trajectory_csv(traj: Trajectory) -> str:
    """CSV at the grid nodes: t, x, dx, ddx."""
    nodes = traj.grid.nodes
    x, dx, ddx = traj.eval_many(nodes)
    return csv_text(["t", "x", "dx", "ddx"], [nodes, x, dx, ddx])


def sampled_from_csv(grid: Grid, path) -> SampledTrajectory:
    """Read node values from a CSV with (at least) columns t, x."""
    rows = np.genfromtxt(path, delimiter=",", names=True)
    if rows.dtype.names is None or "t" not in rows.dtype.names or "x" not in rows.dtype.names:
        raise InvalidTrajectory(f"{path}: need a CSV header with t and x columns")
    ts = np.atleast_1d(rows["t"])
    xs = np.atleast_1d(rows["x"])
    if len(ts) != len(grid.nodes):
        raise InvalidTrajectory(
            f"{path}: {len(ts)} samples but the grid has {len(grid.nodes)} nodes")
    if np.max(np.abs(ts - grid.nodes)) > 1e-9 * max(1.0, grid.b - grid.nodes[0]):
        raise InvalidTrajectory(f"{path}: sample times do not match the grid nodes")
    return SampledTrajectory(grid, xs)
