"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Reference values are closed forms of the bundled delayed problem
(z(2) = e^2 - e, lambda = exp(-t), the two conserved levels) plus derived
oracles: central differences for gradients, closed-form counterexamples,
directly coded reduction formulas.
"""

import math

import numpy as np
import pytest

import herglotz as hg
from herglotz.conditions import (
    dbr_residuals,
    el_residuals,
    hypothesis_profiles,
    node_tables,
)
from herglotz.integrate import integrate_z
from herglotz.noether import SymmetryGroup, conserved_quantities, group_variation, quantity_values
from herglotz.solver import fd_gradient, solve_direct, variational_gradient
from herglotz.trajectory import PiecewiseTrajectory, build_grid

from conftest import build_bundle, build_paper, wavy_sampled

E = math.e
Z_FINAL = E * E - E
Z_MID = E - 1.0
Q2_LEVEL = 1.0 - 1.0 / E


def report(cid, ok, detail):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {cid}: {detail}"


@pytest.fixture(scope="module")
def reference_run():
    problem, traj, group, _ = build_paper(2000)
    zpath = integrate_z(problem, traj)
    return problem, traj, group, zpath


def test_criterion_1_functional_value(reference_run):
    problem, _, _, zpath = reference_run
    nodes = problem.grid.main_nodes
    i1 = int(np.argmin(np.abs(nodes - 1.0)))
    err_b = abs(zpath.z_b - Z_FINAL)
    err_mid = abs(zpath.z[i1] - Z_MID)
    report(1, err_b <= 1e-8 and err_mid <= 1e-8,
           f"|z(2) - (e^2-e)| = {err_b:.3e}, |z(1) - (e-1)| = {err_mid:.3e} (tol 1e-8)")


def test_criterion_2_integrating_factor(reference_run):
    problem, _, _, zpath = reference_run
    err = float(np.max(np.abs(zpath.lam - np.exp(-problem.grid.main_nodes))))
    report(2, err <= 1e-8, f"max node |lambda - exp(-t)| = {err:.3e} (tol 1e-8)")


def test_criterion_3_conserved_quantities(reference_run):
    problem, traj, group, zpath = reference_run
    rep = conserved_quantities(problem, traj, zpath, group, tol=1e-6)
    q1, q2 = rep.profiles
    ok = (q1.drift <= 1e-6 and abs(q1.mean - 1.0) <= 1e-6
          and q2.drift <= 1e-6 and abs(q2.mean - Q2_LEVEL) <= 1e-6)
    report(3, ok,
           f"Q1 mean {q1.mean:.9f} drift {q1.drift:.3e}; "
           f"Q2 mean {q2.mean:.9f} drift {q2.drift:.3e} (tols 1e-6)")


def test_criterion_4_optimality_conditions(reference_run):
    problem, traj, group, zpath = reference_run
    r1, r2 = el_residuals(problem, traj, zpath, tol=1e-4)
    d1, _ = dbr_residuals(problem, traj, zpath, tol=1e-4)
    h1, _ = hypothesis_profiles(problem, traj, zpath, group, tol=1e-6)
    el2_max = float(np.max(np.abs(r2.values)))
    ok = (r1.sup_norm <= 1e-4 and el2_max <= 1e-10
          and d1.sup_norm <= 1e-4 and h1.sup_norm <= 1e-6)
    report(4, ok,
           f"EL1 sup {r1.sup_norm:.3e} (1e-4), EL2 max {el2_max:.3e} (1e-10), "
           f"DBR1 sup {d1.sup_norm:.3e} (1e-4), H1 sup {h1.sup_norm:.3e} (1e-6)")


def test_criterion_5_solver():
    problem, _, _, opts = build_bundle("paper-s4", n=100)
    res = solve_direct(problem, opts)
    g = problem.grid
    flat = (g.nodes >= -1e-12) & (g.nodes <= 1.0 + 1e-12)
    z_err = abs(res.z_b - Z_FINAL)
    flat_max = float(np.max(np.abs(res.trajectory.values[flat])))
    problem2, _, _, opts2 = build_bundle("classical-line", n=100)
    res2 = solve_direct(problem2, opts2)
    dev = float(np.max(np.abs(res2.trajectory.values - problem2.grid.nodes)))
    z2_err = abs(res2.z_b - 1.0)
    ok = (res.converged and z_err <= 1e-4 and flat_max <= 1e-3
          and res2.converged and dev <= 1e-3 and z2_err <= 1e-4)
    report(5, ok,
           f"delayed: |z(2) - ref| = {z_err:.3e} (1e-4), max |x| on [0,1] = "
           f"{flat_max:.3e} (1e-3); line: node dev {dev:.3e} (1e-3), "
           f"|z(1) - 1| = {z2_err:.3e} (1e-4)")


def test_criterion_6_gradient_exactness():
    worst = {}
    for name in ("paper-s4", "herglotz-damped", "classical-line"):
        problem, _, _, _ = build_bundle(name, n=40)
        if name == "paper-s4":
            traj = hg.seed_trajectory(problem, "linear")
        else:
            traj = wavy_sampled(problem)
        zpath = integrate_z(problem, traj)
        gv = variational_gradient(problem, traj, zpath)
        gf = fd_gradient(problem, traj, eps=1e-5)
        worst[name] = float(np.max(np.abs(gv - gf)) / np.max(np.abs(gf)))
    ok = all(v <= 1e-5 for v in worst.values())
    detail = ", ".join(f"{k}: {v:.3e}" for k, v in worst.items())
    report(6, ok, f"relative inf-errors vs central differences (tol 1e-5): {detail}")


def test_criterion_7_reduction_identities():
    # no-delay collapse of the two conserved-quantity formulas
    problem, traj, group, _ = build_bundle("herglotz-damped", n=100)
    zpath = integrate_z(problem, traj)
    _, q1, _, _ = quantity_values(problem, traj, zpath, group)
    T = node_tables(problem, traj, zpath)
    sig, xi, _, _ = group.along(T.t, T.x, T.dx)
    q2_formula = T.lam * (T.table("dx") * xi + (T.table("L") - T.dx * T.table("dx")) * sig)
    collapse = float(np.max(np.abs(q1 - q2_formula)))

    # z-free delayed problem: identity integrating factor, corollary formulas
    g = build_grid(0.0, 2.0, 0.5, 80)
    zfree = hg.HerglotzProblem(grid=g, gamma=0.0, beta=1.0, history="0.5*t",
                               lagrangian="dx^2/2 + x*xtau + dxtau^2/2")
    traj2 = wavy_sampled(zfree)
    zp2 = integrate_z(zfree, traj2)
    lam_exact = bool(np.all(zp2.lam == 1.0))
    grp = SymmetryGroup(sigma="1 - 0.1*t", xi="0.2*x")
    t1, q1d, t2, q2d = quantity_values(zfree, traj2, zp2, grp)
    T2 = node_tables(zfree, traj2, zp2)
    s2, x2, _, _ = grp.along(T2.t, T2.x, T2.dx)
    k1 = g.n - g.m
    coeff = T2.table("dx")[: k1 + 1] + T2.table("dxtau")[g.m:]
    direct1 = (coeff * x2[: k1 + 1]
               + (T2.table("L")[: k1 + 1] - T2.dx[: k1 + 1] * coeff) * s2[: k1 + 1])
    direct2 = (T2.table("dx")[k1:] * x2[k1:]
               + (T2.table("L")[k1:] - T2.dx[k1:] * T2.table("dx")[k1:]) * s2[k1:])
    rng = np.random.default_rng(21)
    scale = max(1.0, float(np.max(np.abs(q1d))))
    idx1 = rng.integers(0, len(q1d), size=100)
    idx2 = rng.integers(0, len(q2d), size=100)
    corr = max(float(np.max(np.abs(q1d[idx1] - direct1[idx1]))),
               float(np.max(np.abs(q2d[idx2] - direct2[idx2])))) / scale
    ok = collapse <= 1e-12 and lam_exact and corr <= 1e-12
    report(7, ok,
           f"tau=0 Q1/Q2 collapse {collapse:.3e} (1e-12); lambda == 1 exactly: "
           f"{lam_exact}; corollary agreement {corr:.3e} (1e-12, 100 random nodes)")


def test_criterion_8_order_of_accuracy():
    errs = {}
    for n in (16, 32):
        problem, traj, _, _ = build_paper(n)
        errs[n] = abs(integrate_z(problem, traj).z_b - Z_FINAL)
    ratio = errs[16] / errs[32]
    report(8, 12.0 <= ratio <= 20.0,
           f"z(2) error ratio when halving h (n=16 -> 32): {ratio:.2f} (in [12, 20])")


def test_criterion_9_invariance_machinery():
    problem, traj, group, _ = build_paper(400)
    zpath = integrate_z(problem, traj)
    prof = group_variation(problem, traj, zpath, group)
    sup_auto = prof.sup_norm

    g = build_grid(0.0, 1.0, 0.0, 100)
    counter = hg.HerglotzProblem(grid=g, gamma=0.0, beta=1.0, history="0",
                                 lagrangian="t + z")
    ctraj = PiecewiseTrajectory(g, [(0.0, 1.0, "t")])
    czp = integrate_z(counter, ctraj)
    cprof = group_variation(counter, ctraj, czp, SymmetryGroup(sigma="1", xi="0"))
    expected = np.exp(cprof.times) - 1.0
    dev = float(np.max(np.abs(cprof.values - expected)))
    ok = sup_auto <= 1e-8 and dev <= 1e-6
    report(9, ok,
           f"autonomous defect sup {sup_auto:.3e} (1e-8); "
           f"time-dependent counterexample vs exp(t)-1: {dev:.3e} (1e-6)")
