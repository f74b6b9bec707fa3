"""Residual evaluators for the delayed Euler-Lagrange and DuBois-Reymond
conditions, plus the auxiliary hypothesis profiles they depend on.

Every report samples its quantity at the grid nodes of its interval. Outer
time derivatives of sampled coefficient functions use 5-point differencing at
the grid step with one-sided closure at interval ends, matching the 4th-order
accuracy of the z integration. Sup-norms skip samples within 2h of any
trajectory breakpoint or of its +-tau images (delayed reads kink there); the
conditions hold classically only on the open smooth subintervals.

Sign convention: left-hand side minus right-hand side exactly as the
conditions are usually displayed, so residual magnitudes are comparable
across problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline

from . import expr
from .fdiff import derivative_on_segment
from .integrate import ZPath, integrate_z, spline_adjoint
from .reportio import csv_text
from .trajectory import Grid, HerglotzProblem, Trajectory

EL1_LABEL = "EL-1 on [a, b-tau]"
EL2_LABEL = "EL-2 on [b-tau, b]"
DBR1_LABEL = "DBR-1"
DBR2_LABEL = "DBR-2"
HYP1_LABEL = "HYP-extremal"
HYP2_LABEL = "HYP-noether"

# default tolerance of each check: residual sup-norms (el, dbr, hyp), the
# invariance defect (inv) and the conserved-quantity drift (drift)
TOLERANCES = MappingProxyType(
    {"el": 1e-4, "dbr": 1e-4, "hyp": 1e-6, "inv": 1e-8, "drift": 1e-6})


@dataclass
class ResidualReport:
    """Sampled residual profile with a junction-aware sup-norm verdict."""

    label: str
    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    tolerance: float
    sup_norm: float
    passed: bool
    excluded_zones: list

    def csv(self) -> str:
        return csv_text(["t", "residual"], [self.times, self.values])

    def summary(self) -> dict:
        return {
            "label": self.label,
            "sup_norm": self.sup_norm,
            "tolerance": self.tolerance,
            "verdict": "pass" if self.passed else "fail",
            "excluded_zones": [[lo, hi] for lo, hi in self.excluded_zones],
        }


def exclusion_zones(traj: Trajectory, lo: float, hi: float) -> list:
    """Open intervals of radius 2h around breakpoints and their +-tau images."""
    g = traj.grid
    r = 2.0 * g.h
    points = set()
    for rho in traj.breakpoints:
        for p in (rho, rho - g.tau, rho + g.tau):
            if lo - r < p < hi + r:
                points.add(p)
    return [(p - r, p + r) for p in sorted(points)]


def _masked(traj: Trajectory, times: np.ndarray):
    """Exclusion zones of the sampled span and the mask of samples outside them."""
    zones = exclusion_zones(traj, times[0], times[-1])
    keep = np.ones(len(times), dtype=bool)
    if len(times) > 1:
        pad = 1e-9 * (times[-1] - times[0])
    else:
        pad = 0.0
    # closed zones: a sample exactly 2h from a kink still has a differencing
    # window touching the kink, so it is excluded too
    for lo, hi in zones:
        keep &= ~((times >= lo - pad) & (times <= hi + pad))
    return zones, keep


def _report(label, times, values, tol, traj) -> ResidualReport:
    zones, keep = _masked(traj, times)
    sup = float(np.max(np.abs(values[keep]))) if np.any(keep) else 0.0
    return ResidualReport(label=label, times=times, values=np.asarray(values),
                          tolerance=float(tol), sup_norm=sup,
                          passed=sup <= tol, excluded_zones=zones)


@dataclass
class NodeTables:
    """Lagrangian value and the six partials along the trajectory at the
    nodes of [a, b], plus the grid and trajectory data feeding them: all a
    node-sampled check needs, built once per check."""

    grid: Grid = field(repr=False)
    traj: Trajectory = field(repr=False)
    t: np.ndarray
    x: np.ndarray
    dx: np.ndarray
    xtau: np.ndarray
    dxtau: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    L: np.ndarray
    p: list  # p[1]..p[6]


def node_tables(problem: HerglotzProblem, traj: Trajectory, zpath: ZPath) -> NodeTables:
    g = problem.grid
    tmain = g.main_nodes
    x, dx = traj.eval_many(tmain, side="right", want_ddx=False)
    xtau, dxtau = traj.eval_many(g.nodes[: g.n + 1], side="right", want_ddx=False)
    bind = {"t": tmain, "x": x, "dx": dx, "xtau": xtau, "dxtau": dxtau, "z": zpath.z}
    L = np.asarray(expr.evaluate(problem.lagrangian, bind), dtype=float)
    L = np.broadcast_to(L, tmain.shape).copy()
    parts = [None]
    for name in ("t", "x", "dx", "xtau", "dxtau", "z"):
        pv = np.asarray(expr.partial(problem.lagrangian, name, bind), dtype=float)
        parts.append(np.broadcast_to(pv, tmain.shape).copy())
    return NodeTables(grid=g, traj=traj, t=tmain, x=x, dx=dx, xtau=xtau, dxtau=dxtau,
                      z=zpath.z, lam=zpath.lam, L=L, p=parts)


def el_residuals(problem: HerglotzProblem, traj: Trajectory, zpath: ZPath,
                 tol: float = TOLERANCES["el"]):
    """Residuals of the two delayed Euler-Lagrange equations.

    On [a, b-tau]:
        lambda(t+tau) [L_xtau(t+tau) - d/dt L_dxtau(t+tau)
                       + L_dxtau(t+tau) L_z(t+tau)]
      + lambda(t)     [L_x(t) - d/dt L_dx(t) + L_dx(t) L_z(t)]
    On [b-tau, b]:
        L_x(t) - d/dt L_dx(t) + L_dx(t) L_z(t)
    Both are asserted at the shared point t = b-tau and both are reported.
    """
    return _el_reports(node_tables(problem, traj, zpath), tol)


def _el_reports(T: NodeTables, tol: float):
    m, n, h = T.grid.m, T.grid.n, T.grid.h
    k1 = n - m
    d5_shift = derivative_on_segment(T.p[5], m, n + 1, h)
    d3_low = derivative_on_segment(T.p[3], 0, k1 + 1, h)
    r1 = (T.lam[m:] * (T.p[4][m:] - d5_shift + T.p[5][m:] * T.p[6][m:])
          + T.lam[: k1 + 1] * (T.p[2][: k1 + 1] - d3_low
                               + T.p[3][: k1 + 1] * T.p[6][: k1 + 1]))
    d3_high = derivative_on_segment(T.p[3], k1, n + 1, h)
    r2 = T.p[2][k1:] - d3_high + T.p[3][k1:] * T.p[6][k1:]
    return (_report(EL1_LABEL, T.t[: k1 + 1], r1, tol, T.traj),
            _report(EL2_LABEL, T.t[k1:], r2, tol, T.traj))


def dbr_residuals(problem: HerglotzProblem, traj: Trajectory, zpath: ZPath,
                  tol: float = TOLERANCES["dbr"]):
    """Residuals of the two DuBois-Reymond first-integral conditions.

    On [a, b-tau]:
        d/dt { lambda L - x' [lambda L_dx + lambda(t+tau) L_dxtau(t+tau)] }
        - lambda L_t
    On [b-tau, b]:
        d/dt { lambda [L - x' L_dx] } - lambda L_t
    """
    T = node_tables(problem, traj, zpath)
    m, n, h = T.grid.m, T.grid.n, T.grid.h
    k1 = n - m
    bracket1 = (T.lam[: k1 + 1] * T.L[: k1 + 1]
                - T.dx[: k1 + 1] * (T.lam[: k1 + 1] * T.p[3][: k1 + 1]
                                    + T.lam[m:] * T.p[5][m:]))
    r1 = (derivative_on_segment(bracket1, 0, k1 + 1, h)
          - T.lam[: k1 + 1] * T.p[1][: k1 + 1])
    bracket2 = T.lam * (T.L - T.dx * T.p[3])
    r2 = (derivative_on_segment(bracket2, k1, n + 1, h)
          - T.lam[k1:] * T.p[1][k1:])
    return (_report(DBR1_LABEL, T.t[: k1 + 1], r1, tol, T.traj),
            _report(DBR2_LABEL, T.t[k1:], r2, tol, T.traj))


def hypothesis_profiles(problem: HerglotzProblem, traj: Trajectory, group=None,
                        zpath: Optional[ZPath] = None, tol: float = TOLERANCES["hyp"]):
    """Profiles of the auxiliary hypotheses behind the first-integral results.

    H1(t) = L_xtau(t+tau) x'(t) + L_dxtau(t+tau) x''(t)   on [a-tau, b-tau];
    H2(t) = L_xtau(t+tau) xi(t)
            + L_dxtau(t+tau) (xi_dot(t) - x'(t) sigma_dot(t)) on [a, b-tau],
    computed only when a symmetry group is supplied (else None), with the
    generator time derivatives taken along the trajectory by the chain rule.
    """
    if zpath is None:
        zpath = integrate_z(problem, traj)
    return _hyp_reports(node_tables(problem, traj, zpath), group, tol)


def _hyp_reports(T: NodeTables, group, tol: float):
    g = T.grid
    tg = g.nodes[: g.n + 1]
    xg, dxg, ddxg = T.traj.eval_many(tg, side="right", want_ddx=True)
    h1 = T.p[4] * dxg + T.p[5] * ddxg
    rep1 = _report(HYP1_LABEL, tg, h1, tol, T.traj)
    if group is None:
        return rep1, None
    k1 = g.n - g.m
    t1 = T.t[: k1 + 1]
    sig, xi, dsig, dxi = group.along(t1, T.x[: k1 + 1], T.dx[: k1 + 1])
    h2 = T.p[4][g.m:] * xi + T.p[5][g.m:] * (dxi - T.dx[: k1 + 1] * dsig)
    rep2 = _report(HYP2_LABEL, t1, h2, tol, T.traj)
    return rep1, rep2


def weak_form_values(problem: HerglotzProblem, traj: Trajectory, zpath: ZPath,
                     r1: ResidualReport, r2: ResidualReport) -> np.ndarray:
    """Simpson-weighted pairing of the Euler-Lagrange residuals with each free
    node's unit variation direction: the weak form whose entries the exact
    first-variation gradient must reproduce.

    A unit direction is one at its node and zero at the others, so the
    node-sampled Simpson terms and the seam term land directly on the node
    vector; the midpoint terms go through the spline adjoint. The
    [b-tau, b] residual is displayed without its lambda weight, so it is
    multiplied back before pairing; the total is normalized by lambda(b) like
    the gradient.
    """
    g = problem.grid
    tmain = g.main_nodes
    k1 = g.n - g.m
    # the strong density jumps at the seam (the shifted terms stop applying),
    # so panels left of it sample the [a, b-tau] residual and panels right of
    # it sample lambda times the [b-tau, b] residual, each one-sided
    left = r1.values
    right = zpath.lam[k1:] * r2.values
    mids = 0.5 * (tmain[:-1] + tmain[1:])
    sm = np.empty(g.n)
    if k1 > 0:
        sm[:k1] = CubicSpline(tmain[: k1 + 1], left)(mids[:k1])
    if k1 < g.n:
        sm[k1:] = CubicSpline(tmain[k1:], right)(mids[k1:])
    ends_lo = np.concatenate([left[:-1], right[:-1]])
    ends_hi = np.concatenate([left[1:], right[1:]])
    # integrating the eta' terms by parts leaves a point contribution at the
    # seam where the shifted coefficient drops out of the first integral
    xt_b, dxt_b = traj.eval_many(
        np.array([g.b - g.tau]), side="left", want_ddx=False)
    xb, dxb, _ = traj.eval(g.b, side="left")
    p5_b = float(expr.partial(problem.lagrangian, "dxtau",
                              {"t": g.b, "x": xb, "dx": dxb,
                               "xtau": float(xt_b[0]), "dxtau": float(dxt_b[0]),
                               "z": zpath.z_b}))
    w = g.h / 6.0
    nodal = np.zeros(g.n + 1)
    nodal[:-1] += w * ends_lo
    nodal[1:] += w * ends_hi
    nodal[k1] += zpath.lambda_b * p5_b
    total = nodal + spline_adjoint(tmain, mids, 4.0 * w * sm, np.zeros(g.n))
    return total[1:-1] / zpath.lambda_b
