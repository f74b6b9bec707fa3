"""Candidate trajectories x on [a-tau, b] over a delay-aligned uniform grid.

The grid puts tau exactly on the mesh (tau = m*h), so delayed reads land on
nodes and no interpolation error enters the delayed terms.

Two backends:

* Sampled: node values with natural cubic splines, one over the history
  segment [a-tau, a] and one over [a, b], joined continuously at t=a. The
  split keeps the slope break at t=a representable: the problems this package
  targets pin x on the history, and their minimizers generically enter [a, b]
  with a different slope. A single C2 spline across t=a would smear that
  corner and bias every downstream quantity at O(h). A trajectory keeps both
  as one table of cubic pieces (de Boor's piecewise-polynomial form, in the
  layout of scipy's PPoly.c): a row per power of z, from z^3 down, and a
  column per grid interval, history columns first, with t=a a breakpoint of
  the table; so does an admissible variation direction (VariationDirection),
  with zero node values on [a-tau, a] and at b. CubicSpline is the package's
  one spline through node values, build_adjoint the transpose of its
  natural-end build, and the grid holds the slope matrices of its two
  segments, each factored once (Grid.spline_geometry, Tridiagonal). One
  rule, _read, reads a spline or a trajectory: an interval search for the
  piece and offset of each sample, and for the samples on a node, then a
  read there. A read of the whole grid, one sample in every interval
  (integrate's panel plan), skips the search:
  SampledTrajectory.read_grid reads the node values, the slope coefficients
  at the nodes and one cubic per interval, in the grid's order, with the
  same bits (a zero slope's sign aside). Every read runs Horner's rule on
  its piece, over contiguous rows of the columns it takes.
* PiecewiseAnalytic: ordered breakpoints with a closed-form expression in t
  per piece; value and first derivative are exact (dual numbers), the second
  derivative applies the 5-point rows of fdiff to the exact first derivative
  at step h/16, with the read time itself as window point p = 0..4, chosen
  so the window stays in the piece (a piece spans a grid step or more).
  eval_many searches the piece of each sample among the piece starts, kept
  as one read-only array. Every boundary between pieces is a grid node, so
  PiecewiseTrajectory.read_grid reads the whole grid in SampledTrajectory's
  layout with no search: each piece walks once over its run of nodes and
  interval midpoints, with eval_many's bits.

At a breakpoint, evaluation uses the right limit; a grid read also gives the
left limit at each kink. Trajectories are immutable; perturb returns a new
value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import perm
from typing import Optional, Sequence, Union

import numpy as np
from numpy.linalg import LinAlgError

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
    sample geometry that every trajectory on this grid shares;
    spline_geometry, also computed on first use, is their spline geometry."""

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

    def node_index(self, t: float, tol: float) -> Optional[int]:
        """The index of the node nearest t if it lies within tol of t, else
        None."""
        j = int(np.clip(np.rint((t - self.nodes[0]) / self.h), 0, len(self.nodes) - 1))
        return j if abs(self.nodes[j] - t) <= tol else None

    @property
    def free_indices(self) -> range:
        """Indices of decision nodes: strictly between a and b."""
        return range(self.m + 1, self.n + self.m)

    @cached_property
    def spline_geometry(self) -> tuple:
        """(history geometry, or None if tau = 0; main geometry): the
        natural-end _spline_geometry of the nodes of [a-tau, a] and of
        [a, b], each slope matrix factored once for the builds of every
        trajectory on the grid."""
        hist = _spline_geometry(self.nodes[: self.m + 1], "natural") if self.m else None
        return hist, _spline_geometry(self.main_nodes, "natural")


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


class Tridiagonal:
    """A tridiagonal matrix, band in solve_banded's (1, 1) layout (band[0, 1:]
    the superdiagonal, band[1] the diagonal, band[2, :-1] the subdiagonal):
    LAPACK's gttrf factors it once, here, and each solve(rhs) is one gttrs
    call with the bits of gtsv, which runs the same elimination with partial
    pivoting and the same substitutions (LAPACK Users' Guide, 3rd ed., SIAM
    1999, sec. 2.4). scipy's gttrf wrapper rejects fewer than 3 rows, so a
    smaller matrix is the trailing block of a 3-row one with an identity
    head that couples to nothing and leaves the block's bits alone. A
    singular matrix raises numpy.linalg.LinAlgError here. The band must not
    change; the factors (gttrf's dl, d, du, du2 and ipiv) are read-only."""

    def __init__(self, band: np.ndarray):
        from scipy.linalg.lapack import dgttrf, dgttrs
        self.band, self._gttrs = band, dgttrs
        self._head = head = max(3 - band.shape[1], 0)
        if head:
            band = np.pad(band, ((0, 0), (head, 0)))
            band[1, :head], band[0, head] = 1.0, 0.0
        *factors, info = dgttrf(band[2, :-1], band[1], band[0, 1:])
        if info != 0:
            raise LinAlgError(f"singular matrix (gttrf info {info})")
        for arr in factors:
            arr.setflags(write=False)
        self.factors = tuple(factors)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with A x = rhs, rhs one or more columns, left unmodified."""
        head = self._head
        if head:
            rhs = np.concatenate([np.zeros((head,) + rhs.shape[1:]), rhs])
        return self._gttrs(*self.factors, rhs)[0][head:]


def _slope_band(x: np.ndarray, bc: str):
    """The matrix of the slope system of the cubic spline through nodes x, in
    Tridiagonal's layout, and whether its end rows are not-a-knot:
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


def _spline_geometry(x: np.ndarray, bc: str) -> tuple:
    """The node spacings, the slope matrix, factored (Tridiagonal), and its
    end kind (_slope_band) of the spline through nodes x with ends bc,
    read-only."""
    dx = np.diff(x)
    band, knot = _slope_band(x, bc)
    for arr in (dx, band):
        arr.setflags(write=False)
    return dx, Tridiagonal(band), knot


class CubicSpline:
    """C2 cubic spline through (x, y) with "natural" or "not-a-knot" ends;
    y holds one value per node.
    CubicSpline(x, y, bc)(ts, nu) reads the nu-th derivative (nu = 0, 1, 2)
    at ts, and .read(ts, nus) several derivatives after one interval search;
    reads outside [x_0, x_n] extend the end pieces, and a value read exactly
    at a node returns the stored value (_read).

    A spline built with _geometry, the _spline_geometry of its nodes and
    ends computed once elsewhere (Grid.spline_geometry), builds only what
    depends on y: one solve with the factored slope matrix.

    The build is scipy.interpolate.CubicSpline's, step for step, so the
    coefficients have its bits (its not-a-knot cases for 2 and 3 nodes aside):
    the C2 conditions give a tridiagonal system in the node slopes s, and
    piece i is y_i + s_i z + c1 z^2 + c0 z^3 with z = t - x_i; the table c
    holds c0, c1, s and y in its four rows, one column per piece, the layout
    of scipy's PPoly.c. A read runs Horner's rule in z, so its error in the
    nu-th derivative of the piece is at most gamma_6 = 6u / (1 - 6u) times
    sum_k |perm(k, nu) c_k z^(k - nu)| (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sec. 5.1); a read at a node starts its
    piece, so x' there is s_i, up to the sign of a zero.
    """

    def __init__(self, x, y, bc: str, _geometry=None):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dx, slope_matrix, knot = _spline_geometry(x, bc) if _geometry is None else _geometry
        slope = np.diff(y) / dx
        b = np.empty_like(y)
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        if knot:
            d0, d1 = x[2] - x[0], x[-1] - x[-3]
            b[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / d0
            b[-1] = (dx[-1]**2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
        else:
            b[0] = 3 * (y[1] - y[0])
            b[-1] = 3 * (y[-1] - y[-2])
        s = slope_matrix.solve(b)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x, self.y = x, y
        # the coefficients c0 .. c3 of z^3 .. z^0, one row each
        self.c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))

    def __call__(self, ts, nu: int = 0) -> np.ndarray:
        return self.read(ts, (nu,))[0]

    def read(self, ts, nus) -> tuple:
        """The derivatives of orders nus at ts, one array each (_read)."""
        return _read(self.x, self.y, self.c, ts, nus)


def _read(x, y, c, ts, nus) -> tuple:
    """The derivatives of orders nus at ts, one array each with the bits of
    separate calls, of the cubic pieces c (one column each) between
    breakpoints x with node values y: piece i holds x[i] <= t < x[i+1], and
    the end pieces extend past the ends; a value read on a node is stored."""
    ts = np.asarray(ts, dtype=float)
    t = ts.reshape(-1)
    i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(x) - 2)
    at = i + (t == x[i + 1])
    rows = np.flatnonzero(t == x[at])
    out = _power_sums(c, i, t - x[i], nus)
    for nu, res in zip(nus, out):
        if nu == 0:
            # a copy, not z = 0, so a stored -0.0 stays -0.0
            res[rows] = y[at[rows]]
    return tuple(r.reshape(ts.shape) for r in out)


def _power_sums(c: np.ndarray, i: np.ndarray, z: np.ndarray, nus) -> list:
    """The derivatives of orders nus at the offsets z into the pieces i of
    the spline coefficients c, one array per order with an entry per sample,
    each by Horner's rule in z; at z = 0 the order nu reads the coefficient
    of z^nu times nu!, up to the sign of a zero."""
    c = np.take(c, i, axis=1)

    def term(k, nu):
        # a unit factor is skipped: 1 x is x, bit for bit
        f = perm(k, nu)
        return c[3 - k] if f == 1 else f * c[3 - k]

    out = []
    for nu in nus:
        res = term(3, nu)
        for k in range(2, nu - 1, -1):
            res = res * z + term(k, nu)
        out.append(res)
    return out


class SampledTrajectory:
    """Node values; natural cubic splines over [a-tau, a] and [a, b], built
    with the grid's spline geometry and kept as one table c of cubic pieces
    in CubicSpline's layout, one column per grid interval, history columns
    first; t=a is a breakpoint of the table when tau > 0."""

    def __init__(self, grid: Grid, values: Sequence[float], _hist=None):
        values = np.asarray(values, dtype=float).copy()
        if values.shape != grid.nodes.shape:
            raise InvalidTrajectory(
                f"expected {grid.nodes.shape[0]} node values, got {values.shape}")
        if not np.isfinite(values).all():
            raise InvalidTrajectory("node values must be finite")
        values.setflags(write=False)
        self.grid = grid
        self.values = values
        m = grid.m
        hist_geo, main_geo = grid.spline_geometry
        if m and _hist is None:
            _hist = CubicSpline(grid.nodes[: m + 1], values[: m + 1], "natural", hist_geo).c
        main = CubicSpline(grid.main_nodes, values[m:], "natural", main_geo).c
        self._hist = _hist
        self.c = main if _hist is None else np.concatenate([_hist, main], axis=1)
        self.c.setflags(write=False)
        self.breakpoints: tuple = (grid.a,) if m else ()

    def _with_values(self, values: np.ndarray) -> "SampledTrajectory":
        """A trajectory on the same grid with the node values values, whose
        history values must equal this one's: it reuses this trajectory's
        history columns as they are, so only what depends on the values on
        [a, b] is built. Every solver trial and perturb is built here."""
        return SampledTrajectory(self.grid, values, _hist=self._hist)

    def eval_many(self, ts, want_ddx: bool = True):
        ts = np.asarray(ts, dtype=float)
        check_domain(self.grid.nodes[0], self.grid.b, ts)
        nus = (0, 1, 2) if want_ddx else (0, 1)
        return _read(self.grid.nodes, self.values, self.c, ts, nus)

    def read_grid(self, i: np.ndarray, z: np.ndarray) -> tuple:
        """A read of the whole grid with eval_many's bits (a zero slope's
        sign aside) and no interval search, at the offsets z > 0 into the
        pieces i, history first: one in every interval, then the last pieces
        of [a, b] and, if tau > 0, of the history at their lengths. Returns
        x and x' at the nodes (x' from the right, at b from the left), x and
        x' in the intervals, and a triple (node index, x, x') from the left
        at each kink, the node a if tau > 0: the layout of
        PiecewiseTrajectory.read_grid. A node reads its stored value and, as
        the start of its piece, that piece's linear coefficient for x'."""
        N, c = len(self.values) - 1, self.c
        v, d = _power_sums(c, i, z, (0, 1))
        at_nodes = np.empty((2, N + 1))
        at_nodes[0] = self.values
        at_nodes[1, :N] = c[2]
        at_nodes[1, N] = d[N]
        m = self.grid.m
        left = ((m, self.values[m], d[N + 1]),) if m else ()
        return at_nodes, np.stack((v[:N], d[:N])), left

    def eval(self, t: float):
        x, dx, ddx = self.eval_many(np.array([float(t)]))
        return float(x[0]), float(dx[0]), float(ddx[0])


class PiecewiseTrajectory:
    """Closed-form pieces covering [a-tau, b]; exact x and dx per piece.
    Every boundary between pieces is a grid node: one within 1e-9 of the span
    of a node is put on that node, bit for bit, and any other raises
    InvalidTrajectory. kinks holds their node indices."""

    def __init__(self, grid: Grid, pieces: Sequence):
        self.grid = grid
        parsed = []
        for t0, t1, e in pieces:
            t0, t1 = float(t0), float(t1)
            if not (np.isfinite(t0) and np.isfinite(t1)):
                raise InvalidTrajectory(
                    f"piece {len(parsed)} has a non-finite end: [{t0}, {t1}]")
            if isinstance(e, str):
                e = expr.parse(e)
            extra = expr.variables_in(e) - {"t"}
            if extra:
                raise InvalidTrajectory(
                    f"piece expressions may only use t, found {sorted(extra)}")
            parsed.append((t0, t1, e))
        if not parsed:
            raise InvalidTrajectory("no pieces given")
        nodes, h = grid.nodes, grid.h
        tol = 1e-9 * max(1.0, grid.b - nodes[0])
        if abs(parsed[0][0] - nodes[0]) > tol or abs(parsed[-1][1] - grid.b) > tol:
            raise InvalidTrajectory("pieces must cover [a - tau, b]")
        kinks = []
        for (_, t1, _), (t0, _, _) in zip(parsed, parsed[1:]):
            if abs(t1 - t0) > tol:
                raise InvalidTrajectory(f"gap between pieces at t={t1}")
            j = grid.node_index(t0, tol)
            if j is None:
                raise InvalidTrajectory(
                    f"piece boundary t={t0} is not a grid node (h={h})")
            kinks.append(j)
        ends = [parsed[0][0], *map(float, nodes[kinks]), parsed[-1][1]]
        parsed = [(t0, t1, e) for (_, _, e), t0, t1 in zip(parsed, ends, ends[1:])]
        for (t0, t1, e) in parsed:
            if t1 - t0 < h / 4:
                raise InvalidTrajectory(f"piece [{t0}, {t1}] shorter than h/4")
        for (p, q) in zip(parsed, parsed[1:]):
            left = expr.evaluate(p[2], {"t": p[1]})
            right = expr.evaluate(q[2], {"t": q[0]})
            if abs(left - right) > 1e-9:
                raise InvalidTrajectory(
                    f"value jump {left - right:.3g} at breakpoint t={q[0]}")
        self.pieces = tuple(parsed)
        self.kinks = tuple(kinks)
        self._starts = np.array([p[0] for p in parsed])
        self._starts.setflags(write=False)
        self.breakpoints = tuple(ends[1:-1])

    def eval_many(self, ts, want_ddx: bool = True):
        ts = np.asarray(ts, dtype=float)
        check_domain(self.grid.nodes[0], self.grid.b, ts)
        idx = np.searchsorted(self._starts, ts, side="right") - 1
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
                # a window of 4s fits at every point of a piece of length >= 5s,
                # and a piece spans at least one grid step; reads in the domain
                # slack past an end clip to the end row
                s = self.grid.h / 16.0
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

    def read_grid(self, ts: np.ndarray):
        """A read of the whole grid with eval_many's bits and no piece
        search: the nodes and interval midpoints in turn, t_0, m_0, t_1, ..,
        t_N, are ts. Each piece is walked once, by value_and_partial, on the
        slice of ts from its start node to the next piece's, which it reads
        from the left. Returns SampledTrajectory.read_grid's layout: x and
        x' at the nodes from the right (at b from the left), in the
        intervals, and a triple (node index, x, x') from the left at each
        kink."""
        ends = [0, *self.kinks, len(self.grid.nodes) - 1]
        read = np.empty((2, len(ts)))
        left = []
        for (_, _, e), i, j in zip(self.pieces, ends, ends[1:]):
            run = slice(2 * i, 2 * j + 1)
            # a piece constant in value or slope comes back a float
            read[0, run], read[1, run] = expr.value_and_partial(e, "t", {"t": ts[run]})
            left.append((j, read[0, 2 * j], read[1, 2 * j]))
        return read[:, ::2], read[:, 1::2], left[:-1]

    def eval(self, t: float):
        x, dx, ddx = self.eval_many(np.array([float(t)]))
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


def adjoint_band(band: np.ndarray) -> np.ndarray:
    """The transpose of a slope matrix band in Tridiagonal's layout,
    as a read-only copy: given the natural spline's forward band
    (Grid.spline_geometry), the system build_adjoint solves."""
    t = band.copy()
    t[0, 1:], t[2, :-1] = band[2, :-1], band[0, 1:]
    t.setflags(write=False)
    return t


# the natural end rows of the slope system's right-hand side, in y_0, y_1
_END_ROW = np.array([-3.0, 3.0])
_END_ROW.setflags(write=False)


def build_adjoint(dx: np.ndarray, adjoint: Tridiagonal, gc) -> np.ndarray:
    """Node weights g with g . y = sum_p gc[p] . c_p for the coefficients c_p
    of z^p in the pieces of CubicSpline(x, y, "natural"), given the node
    spacing dx of its geometry (_spline_geometry) and its transposed slope
    matrix (adjoint_band) factored: the transpose of the build, one
    Tridiagonal.solve."""
    n = len(dx) + 1
    gc3, gc2, gc1, gc0 = gc
    # the coefficients: c0 = t/dx, c1 = (slope - s_i)/dx - t, c2 = s_i, c3 = y_i
    # with t = (s_i + s_{i+1} - 2 slope)/dx; gt is the t-weight over dx
    g1 = gc1 / dx
    gt = (gc0 / dx - gc1) / dx
    gslope = g1 - 2.0 * gt
    gs = np.zeros(n)
    gs[:-1] = gc2 - g1 + gt
    gs[1:] += gt
    gy = np.zeros(n)
    gy[:-1] = gc3
    # the slope system A s = b, transposed
    gb = adjoint.solve(gs)
    # its right-hand side b, with the natural end rows b_0 = 3 (y_1 - y_0) and
    # b_n = 3 (y_n - y_{n-1})
    dx3 = 3 * dx
    gslope[:-1] += dx3[1:] * gb[1:-1]
    gslope[1:] += dx3[:-1] * gb[1:-1]
    gy[:2] += _END_ROW * gb[0]
    gy[-2:] += _END_ROW * gb[-1]
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
    else:
        explicit = np.asarray(guess, dtype=float)
        if explicit.shape != values.shape:
            raise BadGuess(f"explicit seed needs {values.shape[0]} values")
        scale = max(1.0, float(np.max(np.abs(explicit))))
        if np.max(np.abs(explicit[: g.m + 1] - hist)) > 1e-12 * scale:
            raise BadGuess("explicit seed disagrees with the history on [a - tau, a]")
        if abs(explicit[-1] - problem.beta) > 1e-12 * scale:
            raise BadGuess("explicit seed disagrees with x(b) = beta")
        values = explicit
    return SampledTrajectory(g, values)


def trajectory_csv(traj: Trajectory) -> str:
    """CSV at the grid nodes: t, x, dx, ddx."""
    nodes = traj.grid.nodes
    x, dx, ddx = traj.eval_many(nodes)
    return csv_text(["t", "x", "dx", "ddx"], [nodes, x, dx, ddx])


def sampled_from_csv(grid: Grid, path) -> SampledTrajectory:
    """Read node values from a UTF-8 CSV with (at least) columns t, x. A file
    with no header line, or with a row of too few or too many fields, raises
    InvalidTrajectory naming the path."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        # numpy warns on a file with no header line, then fails with IndexError
        if not any(line.replace("#", "").strip() for line in lines):
            raise InvalidTrajectory(f"{path}: empty file, need a CSV header with t and x columns")
        rows = np.genfromtxt(lines, delimiter=",", names=True)
    except ValueError as e:  # not UTF-8, or a ragged row in a message of several lines
        raise InvalidTrajectory(f"{path}: {' '.join(str(e).split())}") from None
    if rows.dtype.names is None or "t" not in rows.dtype.names or "x" not in rows.dtype.names:
        raise InvalidTrajectory(f"{path}: need a CSV header with t and x columns")
    ts = np.atleast_1d(rows["t"])
    xs = np.atleast_1d(rows["x"])
    if len(ts) != len(grid.nodes):
        raise InvalidTrajectory(
            f"{path}: {len(ts)} samples but the grid has {len(grid.nodes)} nodes")
    if not np.all(np.abs(ts - grid.nodes) <= 1e-9 * max(1.0, grid.b - grid.nodes[0])):
        raise InvalidTrajectory(f"{path}: sample times do not match the grid nodes")
    return SampledTrajectory(grid, xs)
