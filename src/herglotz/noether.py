"""Symmetry invariance testing and conserved-quantity monitoring.

A one-parameter transformation family t -> t + eps*sigma(t,x), x -> x +
eps*xi(t,x) leaves the functional z invariant exactly when the cumulative
defect

    h(t) = (1/lambda(t)) int_a^t lambda(s) [ L_t sigma + L_x xi
           + L_dx (xi_dot - x' sigma_dot) + L_xtau xi(s-tau)
           + L_dxtau (xi_dot(s-tau) - x'(s-tau) sigma_dot(s-tau))
           + L sigma_dot ] ds

vanishes identically; generators are taken as zero left of a, so delayed
reads before the start contribute nothing. Invariance is tested through this
infinitesimal integrand, never by finitely transforming the time axis (a
finite transformation moves the delayed argument off the defined history).

Along generalized extremals satisfying the auxiliary hypotheses, two
quantities stay constant:

    Q1(t) = [lam L_dx + lam(t+tau) L_dxtau(t+tau)] xi
          + [lam L - x' (lam L_dx + lam(t+tau) L_dxtau(t+tau))] sigma
    Q2(t) = lam [L_dx xi + (L - x' L_dx) sigma]

on [a, b-tau] and [b-tau, b] respectively; with no delay the two coincide
and a single profile over [a, b] is produced. Drift is measured as the
maximum deviation from the profile mean (catches interior oscillation, not
just endpoint difference), with the residual reports' exclusion zones
(conditions.excluded). Each check has one implementation, the public
function: check_noether runs them in turn, and conserved_quantities reads
quantity_values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import expr
from .conditions import (
    TOLERANCES,
    ResidualReport,
    el_residuals,
    excluded,
    hypothesis_profiles,
    node_tables,
)
from .errors import InvalidTrajectory, NonFinite
from .integrate import ZPath
from .reportio import csv_text
from .trajectory import HerglotzProblem, Trajectory

Q1_LABEL = "Q1 on [a, b-tau]"
Q2_LABEL = "Q2 on [b-tau, b]"
Q_LABEL = "Q on [a, b]"


@dataclass(frozen=True)
class SymmetryGroup:
    """Generators sigma(t, x) and xi(t, x) of a transformation family."""

    sigma: expr.Expression
    xi: expr.Expression

    def __post_init__(self):
        for name in ("sigma", "xi"):
            value = getattr(self, name)
            if isinstance(value, str):
                object.__setattr__(self, name, expr.parse(value))
            bad = expr.variables_in(getattr(self, name)) - {"t", "x"}
            if bad:
                raise InvalidTrajectory(
                    f"group generator {name} may only use t and x, found {sorted(bad)}")

    def along(self, t, x, dx):
        """sigma, xi and their total time derivatives along a trajectory.

        sigma_dot = sigma_t + sigma_x * x' (chain rule with exact partials),
        likewise for xi: no numerical differencing of the generators.
        """
        bind = {"t": t, "x": x}

        def level(e):
            return np.broadcast_to(np.asarray(expr.evaluate(e, bind), dtype=float),
                                   t.shape).copy()

        def total(e):
            pt = np.asarray(expr.partial(e, "t", bind), dtype=float)
            px = np.asarray(expr.partial(e, "x", bind), dtype=float)
            return np.broadcast_to(pt + px * dx, t.shape).copy()

        return level(self.sigma), level(self.xi), total(self.sigma), total(self.xi)


@dataclass(eq=False)
class InvarianceProfile:
    """Cumulative invariance defect h at the nodes of [a, b], with its verdict."""

    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    sup_norm: float
    tolerance: float
    passed: bool

    def csv(self) -> str:
        return csv_text(["t", "h"], [self.times, self.values])

    def summary(self) -> dict:
        return {"label": "invariance-h", "sup_norm": self.sup_norm,
                "tolerance": self.tolerance,
                "verdict": "pass" if self.passed else "fail"}


def group_variation(problem: HerglotzProblem, traj: Trajectory, zpath: ZPath,
                    group: SymmetryGroup,
                    tol: float = TOLERANCES["inv"]) -> InvarianceProfile:
    """Invariance defect h(t) on [a, b] and its sup-norm verdict at tol; zero
    identically iff the group leaves the functional invariant. h(a) = 0 exactly;
    a lambda that underflows to 0 at a node raises NonFinite."""
    P = zpath.samples(traj)
    sig, xi, dsig, dxi = group.along(P.times, P.x, P.dx)
    sig_d, xi_d, dsig_d, dxi_d = group.along(P.delayed, P.xtau, P.dxtau)
    # generators are null left of a
    outside = ~P.inside
    for arr in (xi_d, dxi_d, dsig_d):
        arr[outside] = 0.0
    f = P.lam * (P.table("t") * sig + P.table("x") * xi
                 + P.table("dx") * (dxi - P.dx * dsig)
                 + P.table("xtau") * xi_d
                 + P.table("dxtau") * np.where(outside, 0.0, dxi_d - P.dxtau * dsig_d)
                 + P.table("L") * dsig)
    cum = np.concatenate([[0.0], np.cumsum(P.simpson(f))])
    if not np.all(zpath.lam):
        raise NonFinite("integrating factor lambda underflowed to 0")
    h_nodes = cum / zpath.lam
    sup = float(np.max(np.abs(h_nodes)))
    return InvarianceProfile(times=problem.grid.main_nodes, values=h_nodes,
                             sup_norm=sup, tolerance=float(tol), passed=sup <= tol)


@dataclass(eq=False)
class QuantityProfile:
    label: str
    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    mean: float
    drift: float
    tolerance: float
    passed: bool
    excluded_zones: list

    def summary(self) -> dict:
        return {
            "label": self.label,
            "mean": self.mean,
            "drift": self.drift,
            "tolerance": self.tolerance,
            "verdict": "pass" if self.passed else "fail",
            "excluded_zones": [[lo, hi] for lo, hi in self.excluded_zones],
        }


@dataclass(eq=False)
class ConservationReport:
    """Per-interval conserved-quantity profiles with drift verdicts."""

    profiles: tuple

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.profiles)

    def csv(self) -> str:
        times = np.concatenate([p.times for p in self.profiles])
        values = np.concatenate([p.values for p in self.profiles])
        labels = np.concatenate(
            [np.full(len(p.times), p.label, dtype=object) for p in self.profiles])
        return csv_text(["t", "Q", "interval_label"], [times, values, labels])

    def summary(self) -> dict:
        return {"profiles": [p.summary() for p in self.profiles],
                "verdict": "pass" if self.passed else "fail"}


def _profile(label, first, values, tol, traj) -> QuantityProfile:
    """The drift profile of values at the grid nodes from node first."""
    zones, keep = excluded(label, traj, first, len(values))
    mean = float(np.mean(values[keep]))
    drift = float(np.max(np.abs(values[keep] - mean)))
    return QuantityProfile(label=label, times=traj.grid.nodes[first: first + len(values)],
                           values=values, mean=mean, drift=drift, tolerance=float(tol),
                           passed=drift <= tol, excluded_zones=zones)


def quantity_values(problem: HerglotzProblem, traj: Trajectory, zpath: ZPath,
                    group: SymmetryGroup):
    """Raw Q1 and Q2 samples: Q1 over the nodes of [a, b-tau], Q2 over the
    nodes of [b-tau, b] (over all of [a, b] when tau = 0, where they collapse
    onto the same formula whenever L has no delayed-velocity dependence)."""
    T = node_tables(problem, traj, zpath)
    m, n = T.grid.m, T.grid.n
    k1 = n - m
    sig, xi, _, _ = group.along(T.t, T.x, T.dx)
    L, Ldx, Ldxt = T.table("L"), T.table("dx"), T.table("dxtau")
    coeff = T.lam[: k1 + 1] * Ldx[: k1 + 1] + T.lam[m:] * Ldxt[m:]
    q1 = (coeff * xi[: k1 + 1]
          + (T.lam[: k1 + 1] * L[: k1 + 1] - T.dx[: k1 + 1] * coeff) * sig[: k1 + 1])
    q2 = T.lam[k1:] * (Ldx[k1:] * xi[k1:] + (L[k1:] - T.dx[k1:] * Ldx[k1:]) * sig[k1:])
    return T.t[: k1 + 1], q1, T.t[k1:], q2


def conserved_quantities(problem: HerglotzProblem, traj: Trajectory, zpath: ZPath,
                         group: SymmetryGroup,
                         tol: float = TOLERANCES["drift"]) -> ConservationReport:
    """Conserved-quantity profiles with drift (max deviation from the mean)
    verdicts at the given tolerance."""
    _, q1, _, q2 = quantity_values(problem, traj, zpath, group)
    m, n = zpath.grid.m, zpath.grid.n
    if m == 0:
        return ConservationReport(profiles=(_profile(Q_LABEL, 0, q1, tol, traj),))
    return ConservationReport(profiles=(_profile(Q1_LABEL, m, q1, tol, traj),
                                        _profile(Q2_LABEL, n, q2, tol, traj)))


@dataclass(eq=False)
class NoetherVerdict:
    """Composite conservation verdict; premises are checked in order so a
    drift failure is never blamed when an earlier premise already failed."""

    passed: bool
    first_failure: Optional[str]
    el1: ResidualReport
    el2: ResidualReport
    hyp_extremal: ResidualReport
    hyp_noether: Optional[ResidualReport]
    invariance: InvarianceProfile
    conservation: ConservationReport

    def summary(self) -> dict:
        premises = {
            "EL-1": self.el1.summary(),
            "EL-2": self.el2.summary(),
            "H1": self.hyp_extremal.summary(),
            "invariance": self.invariance.summary(),
        }
        if self.hyp_noether is not None:
            premises["H2"] = self.hyp_noether.summary()
        return {
            "verdict": "pass" if self.passed else "fail",
            "first_failure": self.first_failure,
            "premises": premises,
            "conservation": self.conservation.summary(),
        }


def check_noether(problem: HerglotzProblem, traj: Trajectory, zpath: ZPath,
                  group: SymmetryGroup, tol: Optional[float] = None) -> NoetherVerdict:
    """Check every premise of the conservation statement, then the drift.

    Each premise uses its TOLERANCES default unless tol is given, which then
    holds for all of them (the CLI --tol path). Each premise is its public
    check, run in turn: el_residuals, hypothesis_profiles, group_variation
    and conserved_quantities. The node-sampled ones read the z-path's one
    node table, and each evaluates the generators it needs itself.
    """
    tols = TOLERANCES if tol is None else dict.fromkeys(TOLERANCES, tol)
    el1, el2 = el_residuals(problem, traj, zpath, tols["el"])
    h1, h2 = hypothesis_profiles(problem, traj, zpath, group, tols["hyp"])
    inv = group_variation(problem, traj, zpath, group, tols["inv"])
    cons = conserved_quantities(problem, traj, zpath, group, tols["drift"])
    checks = [("EL-1", el1.passed), ("EL-2", el2.passed), ("H1", h1.passed)]
    if h2 is not None:
        checks.append(("H2", h2.passed))
    checks.append(("invariance", inv.passed))
    checks += [(p.label.split(" ")[0], p.passed) for p in cons.profiles]
    first = next((name for name, ok in checks if not ok), None)
    return NoetherVerdict(passed=first is None, first_failure=first,
                          el1=el1, el2=el2, hyp_extremal=h1, hyp_noether=h2,
                          invariance=inv, conservation=cons)
