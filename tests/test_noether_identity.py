"""The Noether identity: every check tied to the others, on any trajectory.

Along any C^2 trajectory, extremal or not, invariant or not, the quantities
the checks report satisfy an exact identity (EL1, EL2, H1, H2, h, Q1, Q2 as
reported; EL2 without its lambda weight; H2(t - tau) := 0 for t < a + tau;
(lambda h)' is the invariance integrand):

  on [a, b-tau]  Q1' = (lambda h)' - lambda H2(t-tau)
                       + lambda(t+tau) [H2 - sigma H1] + lambda sigma H1(t-tau)
                       - EL1 (xi - x' sigma)
  on [b-tau, b]  Q2' = (lambda h)' - lambda H2(t-tau) + lambda sigma H1(t-tau)
                       - lambda EL2 (xi - x' sigma)

With tau = 0 the first line reads Q' = (lambda h)' - EL (xi - x' sigma).
With sigma = 1 and xi = 0 it gives the DuBois-Reymond residuals:
DBR-1 = x' EL1 - lambda(t+tau) H1 + lambda H1(t-tau) and
DBR-2 = lambda (x' EL2 + H1(t-tau)).

Each side is built from the package's reports (el_residuals,
dbr_residuals, hypothesis_profiles, group_variation, quantity_values), the
time derivatives by derivative_on_segment, so the defect between the sides
is the discretisation error of the checks: 4th order. It is measured at the
nodes of the coarser grid of each pair, leaving out 4 nodes at each end of
a segment and 2 nodes either side of a + tau, where the 5-point windows
cross the jump in x''' at the image of a.
"""

import numpy as np
import pytest

import herglotz as hg
from herglotz.conditions import (
    dbr_residuals,
    el_residuals,
    hypothesis_profiles,
    node_tables,
)
from herglotz.fdiff import derivative_on_segment
from herglotz.integrate import integrate_z
from herglotz.noether import SymmetryGroup, group_variation, quantity_values
from herglotz.trajectory import PiecewiseTrajectory, build_grid

TERMS = ("dx^2", "x*xtau", "dxtau^2", "sin(t)*x", "z*dx", "z^2")
WEIGHTS = (0.5, 0.3, 0.2, 1.0, 0.1, 0.05)
# (tau, b) with a = 0: no delay, and a delay of a quarter of [a, b]
CASES = [(0.0, 1.0), (0.5, 2.0)]


def draw(seed):
    """A Lagrangian from TERMS with random coefficients, a linear history, a
    trajectory joining it C^2 at a = 0 (x''' jumps there), sigma = 1 + c t,
    xi = c' x + t and gamma."""
    rng = np.random.default_rng(seed)
    coeffs = np.array(WEIGHTS) * rng.uniform(0.5, 1.5, 6) * rng.choice([-1.0, 1.0], 6)
    c0, c1, amp, freq, c, c_x, gamma = (float(v) for v in (
        *rng.uniform(-0.5, 0.5, 2), rng.uniform(0.2, 0.6), rng.uniform(1.0, 3.0),
        rng.uniform(-0.2, 0.2), rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5)))
    history = f"{c0!r} + {c1!r}*t"
    return {
        "lagrangian": " + ".join(f"({float(k)!r})*{term}" for k, term in zip(coeffs, TERMS)),
        "history": history,
        "x": f"{history} + {amp!r}*t^2*sin({freq!r}*t)",
        "group": SymmetryGroup(sigma=f"1 + {c!r}*t", xi=f"{c_x!r}*x + t"),
        "gamma": gamma,
    }


def kept(first, count, grid):
    """Mask of a segment's count main nodes from main node first: 4 nodes off
    each end and 2 either side of a + tau (main node m) left out."""
    keep = np.ones(count, dtype=bool)
    keep[:4] = keep[-4:] = False
    c = grid.m - first
    keep[max(c - 2, 0): max(c + 3, 0)] = False
    return keep


def identity_defects(seed, tau, b, n):
    """|left - right| of the identity's forms at the main nodes of their
    segments, each with its mask of kept nodes."""
    d = draw(seed)
    g = build_grid(0.0, b, tau, n)
    problem = hg.HerglotzProblem(grid=g, gamma=d["gamma"], beta=0.0,
                                 history=d["history"], lagrangian=d["lagrangian"])
    pieces = ([(-tau, 0.0, d["history"])] if tau else []) + [(0.0, b, d["x"])]
    traj = PiecewiseTrajectory(g, pieces)
    zp = integrate_z(problem, traj)
    group = d["group"]
    m, k1, h = g.m, g.n - g.m, g.h
    el1, el2 = (r.values for r in el_residuals(problem, traj, zp))
    dbr1, dbr2 = (r.values for r in dbr_residuals(problem, traj, zp))
    H1, H2 = (r.values for r in hypothesis_profiles(problem, traj, zp, group))
    lam_h = zp.lam * group_variation(problem, traj, zp, group).values
    _, q1, _, q2 = quantity_values(problem, traj, zp, group)
    T = node_tables(problem, traj, zp)
    lam, dx = T.lam, T.dx
    sig, xi, _, _ = group.along(T.t, T.x, dx)
    dlam_h = derivative_on_segment(lam_h, 0, g.n + 1, h)
    # H1 lives on the n + 1 nodes from a - tau: H1(t) at main node j is H1[j + m],
    # H1(t - tau) is H1[j]; H2 lives on [a, b - tau] from main node 0
    j = np.arange(g.n + 1)
    H2_back = np.where(j >= m, H2[np.clip(j - m, 0, k1)], 0.0)
    rest = dlam_h - lam * H2_back + lam * sig * H1  # the terms both segments share
    w = xi - dx * sig
    lo, hi = slice(0, k1 + 1), slice(k1, g.n + 1)
    forms = {
        "Q1": (derivative_on_segment(q1, 0, k1 + 1, h),
               rest[lo] + lam[m:] * (H2 - sig[lo] * H1[m:]) - el1 * w[lo]),
        "DBR-1": (dbr1, dx[lo] * el1 - lam[m:] * H1[m:] + lam[lo] * H1[lo]),
    }
    if m:
        forms["Q2"] = (derivative_on_segment(q2, 0, len(q2), h),
                       rest[hi] - lam[hi] * el2 * w[hi])
        forms["DBR-2"] = (dbr2, lam[hi] * (dx[hi] * el2 + H1[hi]))
    first = {"Q1": 0, "DBR-1": 0, "Q2": k1, "DBR-2": k1}
    return {name: (np.abs(left - right), np.max(np.abs(left)),
                   kept(first[name], len(left), g))
            for name, (left, right) in forms.items()}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("tau, b", CASES, ids=["tau=0", "tau=0.5"])
@pytest.mark.parametrize("n", [40, 80])
def test_identity_holds_at_fourth_order(seed, tau, b, n):
    coarse, fine = identity_defects(seed, tau, b, n), identity_defects(seed, tau, b, 2 * n)
    assert set(coarse) == ({"Q1", "DBR-1", "Q2", "DBR-2"} if tau else {"Q1", "DBR-1"})
    for name, (defect, scale, keep) in coarse.items():
        # the coarse grid's nodes are every second node of the fine grid
        fine_defect, fine_scale, _ = fine[name]
        d_n, d_2n = np.max(defect[keep]), np.max(fine_defect[::2][keep])
        order = np.log2(d_n / d_2n)
        assert order >= 3.5, f"{name}: defect {d_n:.3g} -> {d_2n:.3g}, order {order:.2f}"
        assert d_2n <= 1e-4 * fine_scale, f"{name}: defect {d_2n:.3g} against {fine_scale:.3g}"

