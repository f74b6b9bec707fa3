"""Residual evaluators for the delayed Euler-Lagrange and DuBois-Reymond
conditions, plus the auxiliary hypothesis profiles they depend on.

Every check takes the z-path of its trajectory and samples its quantity at
the grid nodes of its interval, from the z-path's one node table
(node_tables, integrate.NodeTables), which every check on that z-path
shares. Outer time derivatives of sampled coefficient functions use 5-point
differencing at the grid step with one-sided closure at interval ends,
matching the 4th-order accuracy of the z integration. Every kink of a
trajectory is a grid node (its kinks) and tau is m steps, so a report's
samples are known by node index, and so are its exclusion zones
(excluded): sup-norms skip the samples within 2 nodes of a kink node or of
an image m nodes from one (delayed reads kink there), since the conditions
hold classically only on the open smooth subintervals; a report with no
sample left (n too coarse) raises BadInterval, CLI exit 2.

Sign convention: left-hand side minus right-hand side exactly as the
conditions are usually displayed, so residual magnitudes are comparable
across problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import BadInterval, NonFinite
from .fdiff import derivative_on_segment
from .integrate import NodeTables, ZPath
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


def excluded(label: str, traj: Trajectory, first: int, count: int):
    """The exclusion zones of a report over the count grid nodes from node
    first, and the mask of its samples outside them, at least one (else
    BadInterval, naming the report label). A zone is centred on a kink node
    or on an image m nodes from one, kept when it reaches the span: it
    masks the samples within 2 nodes of its centre c, and its bounds are
    t_c -+ 2h, t_c the node c (a + (c - m) h past the grid's ends)."""
    g = traj.grid
    m, last = g.m, first + count - 1
    centres = sorted({c for j in traj.kinks for c in (j - m, j, j + m)
                      if first - 2 < c < last + 2})
    keep = np.ones(count, dtype=bool)
    zones = []
    r = 2.0 * g.h
    for c in centres:
        keep[max(c - 2 - first, 0): c + 3 - first] = False
        t = float(g.nodes[c]) if 0 <= c < len(g.nodes) else g.a + (c - m) * g.h
        zones.append((t - r, t + r))
    if not np.any(keep):
        raise BadInterval(
            f"{label}: every sample lies within 2h of a breakpoint or of its +-tau images; "
            f"n = {g.n} is too coarse for this check")
    return zones, keep


def _report(label, first, values, tol, traj) -> ResidualReport:
    """The report of values at the grid nodes from node first."""
    zones, keep = excluded(label, traj, first, len(values))
    sup = float(np.max(np.abs(values[keep])))
    return ResidualReport(label=label, times=traj.grid.nodes[first: first + len(values)],
                          values=np.asarray(values), tolerance=float(tol),
                          sup_norm=sup, passed=sup <= tol, excluded_zones=zones)


def node_tables(problem: HerglotzProblem, traj: Trajectory, zpath: ZPath) -> NodeTables:
    """The node table of the z-path along traj (ZPath.nodes), which every
    check on that z-path shares."""
    return zpath.nodes(traj)


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
    T = node_tables(problem, traj, zpath)
    m, n, h = T.grid.m, T.grid.n, T.grid.h
    k1 = n - m
    Lx, Ldx, Lxt, Ldxt, Lz = (T.table(v) for v in ("x", "dx", "xtau", "dxtau", "z"))
    d5_shift = derivative_on_segment(Ldxt, m, n + 1, h)
    d3_low = derivative_on_segment(Ldx, 0, k1 + 1, h)
    r1 = (T.lam[m:] * (Lxt[m:] - d5_shift + Ldxt[m:] * Lz[m:])
          + T.lam[: k1 + 1] * (Lx[: k1 + 1] - d3_low + Ldx[: k1 + 1] * Lz[: k1 + 1]))
    d3_high = derivative_on_segment(Ldx, k1, n + 1, h)
    r2 = Lx[k1:] - d3_high + Ldx[k1:] * Lz[k1:]
    return (_report(EL1_LABEL, m, r1, tol, traj), _report(EL2_LABEL, n, r2, tol, traj))


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
    return (_report(DBR1_LABEL, m, r1, tol, traj), _report(DBR2_LABEL, n, r2, tol, traj))


def hypothesis_profiles(problem: HerglotzProblem, traj: Trajectory, zpath: ZPath,
                        group=None, tol: float = TOLERANCES["hyp"]):
    """Profiles of the auxiliary hypotheses behind the first-integral results.

    H1(t) = L_xtau(t+tau) x'(t) + L_dxtau(t+tau) x''(t)   on [a-tau, b-tau];
    H2(t) = L_xtau(t+tau) xi(t)
            + L_dxtau(t+tau) (xi_dot(t) - x'(t) sigma_dot(t)) on [a, b-tau],
    computed only when a symmetry group is supplied (else None), with the
    generator time derivatives taken along the trajectory by the chain rule.
    """
    T = node_tables(problem, traj, zpath)
    m, n = T.grid.m, T.grid.n
    k1 = n - m
    Lxt, Ldxt = T.table("xtau"), T.table("dxtau")
    h1 = Lxt * T.dxtau + Ldxt * T.ddxtau
    rep1 = _report(HYP1_LABEL, 0, h1, tol, traj)
    if group is None:
        return rep1, None
    _, xi, dsig, dxi = (v[: k1 + 1] for v in group.along(T.t, T.x, T.dx))
    h2 = Lxt[m:] * xi + Ldxt[m:] * (dxi - T.dx[: k1 + 1] * dsig)
    return rep1, _report(HYP2_LABEL, m, h2, tol, traj)


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
