"""Candidate trajectories x on [a-tau, b] over a delay-aligned uniform grid.

The grid puts tau exactly on the mesh (tau = m*h), so delayed reads land on
nodes and no interpolation error enters the delayed terms.

Two backends:

* Sampled: node values with natural cubic splines, one over the history
  segment [a-tau, a] and one over [a, b], joined continuously at t=a. The
  split keeps the slope break at t=a representable: the problems this package
  targets pin x on the history, and their minimizers generically enter [a, b]
  with a different slope. A single C2 spline across t=a would smear that
  corner and bias every downstream quantity at O(h).
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
from typing import Sequence, Union

import numpy as np
from scipy.interpolate import CubicSpline

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
    """Uniform mesh on [a-tau, b]: h=(b-a)/n, tau=m*h, nodes t_i = a + (i-m)h."""

    a: float
    b: float
    tau: float
    n: int
    h: float
    m: int
    nodes: np.ndarray = field(repr=False, compare=False)

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


def _domain_check(grid: Grid, ts: np.ndarray) -> None:
    slack = 1e-9 * (grid.b - grid.nodes[0])
    lo, hi = grid.nodes[0] - slack, grid.b + slack
    if np.any(ts < lo) or np.any(ts > hi):
        bad = ts[(ts < lo) | (ts > hi)]
        raise OutOfDomain(f"t={float(np.atleast_1d(bad)[0])} outside [{grid.nodes[0]}, {grid.b}]")


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
                grid.nodes[: m + 1], values[: m + 1], bc_type="natural")
            self.breakpoints: tuple = (grid.a,)
        else:
            self._hist = None
            self.breakpoints = ()
        self._main = CubicSpline(grid.main_nodes, values[m:], bc_type="natural")

    def _with_values(self, values: np.ndarray) -> "SampledTrajectory":
        return SampledTrajectory(self.grid, values, _hist=self._hist)

    def eval_many(self, ts, side: str = "right", want_ddx: bool = True):
        ts = np.asarray(ts, dtype=float)
        _domain_check(self.grid, ts)
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
        for mask, spline in ((use_main, self._main), (~use_main, self._hist)):
            if not np.any(mask):
                continue
            tm = ts[mask]
            x[mask] = spline(tm)
            dx[mask] = spline(tm, 1)
            if want_ddx:
                ddx[mask] = spline(tm, 2)
        # node hits return the stored values exactly
        idx = np.searchsorted(g.nodes, ts)
        idx = np.clip(idx, 0, len(g.nodes) - 1)
        exact = g.nodes[idx] == ts
        if np.any(exact):
            x[exact] = self.values[idx[exact]]
        return (x, dx, ddx) if want_ddx else (x, dx)

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
        _domain_check(self.grid, ts)
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
