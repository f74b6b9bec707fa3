"""Residual evaluators for the delayed Euler-Lagrange and DuBois-Reymond
conditions, plus the auxiliary hypothesis profiles they depend on.

Every report samples its quantity at the grid nodes of its interval. Outer
time derivatives of sampled coefficient functions use 5-point differencing at
the grid step with one-sided closure at interval ends, matching the 4th-order
accuracy of the z integration. Sup-norms skip samples within 2h of any
trajectory breakpoint or of its +-tau images (delayed reads kink there); the
conditions hold classically only on the open smooth subintervals; a report
with no sample left (n too coarse) raises BadInterval, CLI exit 2.

Sign convention: left-hand side minus right-hand side exactly as the
conditions are usually displayed, so residual magnitudes are comparable
across problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Optional

import numpy as np

from .errors import BadInterval, NonFinite
from .fdiff import derivative_on_segment
from .integrate import Samples, ZPath, integrate_z
from .reportio import csv_text
from .trajectory import CubicSpline, HerglotzProblem, Trajectory

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


@dataclass(eq=False)
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
    """Open intervals of radius 2h around breakpoints and their +-tau images.
    An image within 1e-9 h of a point already taken, a breakpoint first, is
    that point: a kink tau from another misses it by round-off only."""
    g = traj.grid
    r = 2.0 * g.h
    images = [rho + s for rho in traj.breakpoints for s in (-g.tau, g.tau)]
    points = []
    for p in (*traj.breakpoints, *images):
        if lo - r < p < hi + r and all(abs(p - q) > 1e-9 * g.h for q in points):
            points.append(p)
    return [(p - r, p + r) for p in sorted(points)]


def _masked(label: str, traj: Trajectory, times: np.ndarray):
    """Exclusion zones of the sampled span and the mask of samples outside
    them, at least one (else BadInterval, naming the report label)."""
    zones = exclusion_zones(traj, times[0], times[-1])
    keep = np.ones(len(times), dtype=bool)
    pad = 1e-9 * (times[-1] - times[0])
    # closed zones: a sample exactly 2h from a kink still has a differencing
    # window touching the kink, so it is excluded too
    for lo, hi in zones:
        keep &= ~((times >= lo - pad) & (times <= hi + pad))
    if not np.any(keep):
        raise BadInterval(
            f"{label}: every sample lies within 2h of a breakpoint or of its +-tau images; "
            f"n = {traj.grid.n} is too coarse for this check")
    return zones, keep


def _report(label, times, values, tol, traj) -> ResidualReport:
    zones, keep = _masked(label, traj, times)
    sup = float(np.max(np.abs(values[keep])))
    return ResidualReport(label=label, times=times, values=np.asarray(values),
                          tolerance=float(tol), sup_norm=sup,
                          passed=sup <= tol, excluded_zones=zones)


class NodeTables(Samples):
    """L and its partials along the trajectory at the nodes of [a, b], filled
    in by name on first use, with the reads, z and lambda feeding them: all a
    node-sampled check needs, built once per check. The trajectory is read
    once, at every grid node; tau is m steps, so the delayed reads at the
    nodes of [a, b] are the reads at the first n+1 nodes. x'' is read only
    for a check of H1, which asks for it with want_ddx (else ddxtau is None)."""

    def __init__(self, problem: HerglotzProblem, traj: Trajectory, zpath: ZPath,
                 want_ddx: bool = False):
        g = self.grid = problem.grid
        self.traj = traj
        reads = traj.eval_many(g.nodes, want_ddx=want_ddx)
        x, dx = reads[:2]
        self.t, self.x, self.dx = g.main_nodes, x[g.m:], dx[g.m:]
        self.xtau, self.dxtau = x[: g.n + 1], dx[: g.n + 1]
        self.ddxtau = reads[2][: g.n + 1] if want_ddx else None
        self.z, self.lam = zpath.z, zpath.lam
        super().__init__(problem.lagrangian, {
            "t": self.t, "x": self.x, "dx": self.dx,
            "xtau": self.xtau, "dxtau": self.dxtau, "z": self.z})


def node_tables(problem: HerglotzProblem, traj: Trajectory, zpath: ZPath,
                want_ddx: bool = False) -> NodeTables:
    """The node table of one check: the one call each check makes."""
    return NodeTables(problem, traj, zpath, want_ddx)


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
    Lx, Ldx, Lxt, Ldxt, Lz = (T.table(v) for v in ("x", "dx", "xtau", "dxtau", "z"))
    d5_shift = derivative_on_segment(Ldxt, m, n + 1, h)
    d3_low = derivative_on_segment(Ldx, 0, k1 + 1, h)
    r1 = (T.lam[m:] * (Lxt[m:] - d5_shift + Ldxt[m:] * Lz[m:])
          + T.lam[: k1 + 1] * (Lx[: k1 + 1] - d3_low + Ldx[: k1 + 1] * Lz[: k1 + 1]))
    d3_high = derivative_on_segment(Ldx, k1, n + 1, h)
    r2 = Lx[k1:] - d3_high + Ldx[k1:] * Lz[k1:]
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
    L, Lt, Ldx, Ldxt = (T.table(v) for v in ("L", "t", "dx", "dxtau"))
    bracket1 = (T.lam[: k1 + 1] * L[: k1 + 1]
                - T.dx[: k1 + 1] * (T.lam[: k1 + 1] * Ldx[: k1 + 1] + T.lam[m:] * Ldxt[m:]))
    r1 = derivative_on_segment(bracket1, 0, k1 + 1, h) - T.lam[: k1 + 1] * Lt[: k1 + 1]
    bracket2 = T.lam * (L - T.dx * Ldx)
    r2 = derivative_on_segment(bracket2, k1, n + 1, h) - T.lam[k1:] * Lt[k1:]
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
    T = node_tables(problem, traj, zpath, want_ddx=True)
    return _hyp_reports(T, None if group is None else group.along(T.t, T.x, T.dx), tol)


def _hyp_reports(T: NodeTables, gens, tol: float):
    """H1, and H2 from the generators at the nodes (None: no H2)."""
    g = T.grid
    Lxt, Ldxt = T.table("xtau"), T.table("dxtau")
    h1 = Lxt * T.dxtau + Ldxt * T.ddxtau
    rep1 = _report(HYP1_LABEL, g.nodes[: g.n + 1], h1, tol, T.traj)
    if gens is None:
        return rep1, None
    k1 = g.n - g.m
    _, xi, dsig, dxi = (v[: k1 + 1] for v in gens)
    h2 = Lxt[g.m:] * xi + Ldxt[g.m:] * (dxi - T.dx[: k1 + 1] * dsig)
    rep2 = _report(HYP2_LABEL, T.t[: k1 + 1], h2, tol, T.traj)
    return rep1, rep2


def weak_form_values(problem: HerglotzProblem, traj: Trajectory, zpath: ZPath,
                     r1: ResidualReport, r2: ResidualReport) -> np.ndarray:
    """Simpson-weighted pairing of the Euler-Lagrange residuals with each free
    node's unit variation direction: the weak form whose entries the exact
    first-variation gradient must reproduce.

    The plan's Simpson weights times the residual at the panel samples (the
    reports' node values, and not-a-knot splines through them at the
    midpoints) pair with every unit direction at once as weights of x, by
    the gradient's transposed read (Panels.scatter). The [b-tau, b]
    residual is displayed without its lambda weight, so it is multiplied
    back before pairing; the total is normalized by lambda(b) like the
    gradient, and a lambda(b) that underflows to 0 raises NonFinite.
    """
    g = problem.grid
    P = zpath.samples(traj)
    tmain = g.main_nodes
    k1 = g.n - g.m  # >= 1, as tau < b - a
    # the strong density jumps at the seam (the shifted terms stop applying),
    # so panels left of it sample the [a, b-tau] residual and panels right of
    # it sample lambda times the [b-tau, b] residual, each one-sided
    left = r1.values
    right = zpath.lam[k1:] * r2.values
    mids = 0.5 * (tmain[:-1] + tmain[1:])
    # the residual at the panel lefts, midpoints and rights
    res = np.empty((3, g.n))
    res[0] = np.concatenate([left[:-1], right[:-1]])
    res[2] = np.concatenate([left[1:], right[1:]])
    res[1, :k1] = CubicSpline(tmain[: k1 + 1], left, "not-a-knot")(mids[:k1])
    if k1 < g.n:
        res[1, k1:] = CubicSpline(tmain[k1:], right, "not-a-knot")(mids[k1:])
    w = np.zeros((4, 3 * g.n))
    w[0] = P.plan.weights * res.ravel()
    total = P.scatter(w)
    # integrating the eta' terms by parts leaves a point contribution at the
    # seam where the shifted coefficient drops out of the first integral: L_dxtau
    # at b with left limits, which is the last panel right of the z-path samples
    total[k1] += zpath.lambda_b * P.table("dxtau")[-1]
    if zpath.lambda_b == 0.0:
        raise NonFinite("integrating factor lambda(b) underflowed to 0")
    return total[1:-1] / zpath.lambda_b
