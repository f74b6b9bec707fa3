import math

import numpy as np
import pytest

import herglotz as hg
from herglotz.conditions import el_residuals, hypothesis_profiles, node_tables
from herglotz.integrate import integrate_z
from herglotz.noether import (
    SymmetryGroup,
    check_noether,
    conserved_quantities,
    group_variation,
    quantity_values,
)
from herglotz.trajectory import PiecewiseTrajectory, build_grid

from conftest import build_bundle, build_paper, wavy_sampled

E = math.e
TIME_SHIFT = SymmetryGroup(sigma="1", xi="0")


class TestGroupVariation:
    def test_autonomous_reference_problem_invariant(self, paper400):
        problem, traj, group, zp = paper400
        prof = group_variation(problem, traj, zp, group)
        assert prof.sup_norm < 1e-8
        assert prof.passed and prof.tolerance == 1e-8

    def test_zero_generators_trivially_invariant(self, paper400):
        problem, traj, _, zp = paper400
        prof = group_variation(problem, traj, zp, SymmetryGroup(sigma="0", xi="0"))
        assert np.all(prof.values == 0.0)

    def test_time_dependent_counterexample_closed_form(self):
        g = build_grid(0.0, 1.0, 0.0, 100)
        problem = hg.HerglotzProblem(grid=g, gamma=0.0, beta=1.0,
                                     history="0", lagrangian="t + z")
        traj = PiecewiseTrajectory(g, [(0.0, 1.0, "t")])
        zp = integrate_z(problem, traj)
        prof = group_variation(problem, traj, zp, TIME_SHIFT)
        expected = np.exp(prof.times) - 1.0
        assert np.max(np.abs(prof.values - expected)) < 1e-6
        assert not prof.passed
        # sup |h| = e - 1
        assert group_variation(problem, traj, zp, TIME_SHIFT, tol=2.0).passed

    def test_defect_starts_at_zero(self, paper400):
        problem, traj, _, zp = paper400
        prof = group_variation(problem, traj, zp,
                               SymmetryGroup(sigma="t", xi="x^2"))
        assert prof.values[0] == 0.0

    def test_generators_restricted_to_t_and_x(self):
        with pytest.raises(hg.errors.InvalidTrajectory):
            SymmetryGroup(sigma="z", xi="0")


class TestConservedQuantities:
    def test_reference_problem_quantities(self, paper400):
        problem, traj, group, zp = paper400
        rep = conserved_quantities(problem, traj, zp, group)
        q1, q2 = rep.profiles
        assert abs(q1.mean - 1.0) < 1e-6
        assert q1.drift < 1e-6
        assert abs(q2.mean - (1.0 - 1.0 / E)) < 1e-6
        assert q2.drift < 1e-6
        assert rep.passed

    def test_classical_energy_of_line(self):
        problem, traj, group, _ = build_bundle("classical-line", n=100)
        zp = integrate_z(problem, traj)
        rep = conserved_quantities(problem, traj, zp, group, tol=1e-8)
        (q,) = rep.profiles
        assert q.label == "Q on [a, b]"
        assert abs(q.mean - (-1.0)) < 1e-10
        assert q.drift < 1e-8

    def test_non_extremal_drifts_at_two_resolutions(self):
        for n in (200, 400):
            problem, _, group, _ = build_paper(n)
            traj = PiecewiseTrajectory(problem.grid, [
                (-1.0, 0.0, "-t"), (0.0, 1.0, "t^2"), (1.0, 2.0, "1")])
            zp = integrate_z(problem, traj)
            rep = conserved_quantities(problem, traj, zp, group, tol=0.01)
            q1 = rep.profiles[0]
            assert q1.drift > 0.01
            assert not q1.passed

    def test_generator_scaling_is_linear(self, paper400):
        problem, traj, _, zp = paper400
        base = SymmetryGroup(sigma="1 + t", xi="x")
        scaled = SymmetryGroup(sigma="2.5*(1 + t)", xi="2.5*x")
        t1, q1, t2, q2 = quantity_values(problem, traj, zp, base)
        _, q1s, _, q2s = quantity_values(problem, traj, zp, scaled)
        scale = np.max(np.abs(q1))
        assert np.max(np.abs(q1s - 2.5 * q1)) <= 1e-12 * max(1.0, scale)
        assert np.max(np.abs(q2s - 2.5 * q2)) <= 1e-12 * max(1.0, scale)

    def test_no_delay_collapse_pointwise(self):
        # without delayed-velocity dependence Q1 and Q2 are the same formula
        problem, traj, group, _ = build_bundle("herglotz-damped", n=100)
        zp = integrate_z(problem, traj)
        t1, q1, _, _ = quantity_values(problem, traj, zp, group)
        T = node_tables(problem, traj, zp)
        sig, xi, _, _ = group.along(T.t, T.x, T.dx)
        q2_formula = T.lam * (T.table("dx") * xi + (T.table("L") - T.dx * T.table("dx")) * sig)
        assert np.max(np.abs(q1 - q2_formula)) <= 1e-12 * max(1.0, np.max(np.abs(q1)))

    def test_z_free_collapse_to_unweighted_quantities(self):
        g = build_grid(0.0, 2.0, 0.5, 40)
        problem = hg.HerglotzProblem(
            grid=g, gamma=0.0, beta=1.0, history="0.5*t",
            lagrangian="dx^2/2 + x*xtau + dxtau^2/2")
        traj = wavy_sampled(problem)
        zp = integrate_z(problem, traj)
        group = SymmetryGroup(sigma="1 - 0.2*t", xi="0.3*x")
        t1, q1, t2, q2 = quantity_values(problem, traj, zp, group)
        T = node_tables(problem, traj, zp)
        assert np.all(zp.lam == 1.0)
        k1 = g.n - g.m
        rng = np.random.default_rng(9)
        sig, xi, _, _ = group.along(T.t, T.x, T.dx)
        coeff = T.table("dx")[: k1 + 1] + T.table("dxtau")[g.m:]
        direct1 = (coeff * xi[: k1 + 1]
                   + (T.table("L")[: k1 + 1] - T.dx[: k1 + 1] * coeff) * sig[: k1 + 1])
        direct2 = (T.table("dx")[k1:] * xi[k1:]
                   + (T.table("L")[k1:] - T.dx[k1:] * T.table("dx")[k1:]) * sig[k1:])
        scale = max(1.0, np.max(np.abs(q1)))
        for idx in rng.integers(0, k1 + 1, size=100):
            assert abs(q1[idx] - direct1[idx]) <= 1e-12 * scale
        for idx in rng.integers(0, g.m + 1, size=100):
            assert abs(q2[idx] - direct2[idx]) <= 1e-12 * scale


class TestCheckNoether:
    def test_reference_setup_passes(self, paper400):
        problem, traj, group, zp = paper400
        verdict = check_noether(problem, traj, zp, group)
        assert verdict.passed
        assert verdict.first_failure is None

    def test_zero_group_passes_with_zero_quantities(self, paper400):
        problem, traj, _, zp = paper400
        verdict = check_noether(problem, traj, zp, SymmetryGroup(sigma="0", xi="0"))
        assert verdict.passed
        for p in verdict.conservation.profiles:
            assert np.all(p.values == 0.0)

    def test_non_extremal_blames_el_first(self):
        problem, traj, group, _ = build_bundle("paper-s4-nonextremal", n=200)
        zp = integrate_z(problem, traj)
        verdict = check_noether(problem, traj, zp, group)
        assert not verdict.passed
        assert verdict.first_failure == "EL-1"

    def test_uniform_tolerance_override(self, paper400):
        problem, traj, group, zp = paper400
        tight = check_noether(problem, traj, zp, group, tol=1e-30)
        assert not tight.passed
        loose = check_noether(problem, traj, zp, group, tol=10.0)
        assert loose.passed

    def test_builds_one_node_table(self, paper400, node_table_calls):
        # a fresh z-path: paper400's keeps the table an earlier test built
        problem, traj, group, _ = paper400
        check_noether(problem, traj, integrate_z(problem, traj), group)
        assert len(node_table_calls) == 1

    def test_shared_table_matches_separate_checks(self, paper400):
        problem, traj, group, zp = paper400
        verdict = check_noether(problem, traj, zp, group)
        el1, el2 = el_residuals(problem, traj, zp)
        h1, h2 = hypothesis_profiles(problem, traj, zp, group)
        cons = conserved_quantities(problem, traj, zp, group)
        pairs = [(verdict.el1, el1), (verdict.el2, el2), (verdict.hyp_extremal, h1),
                 (verdict.hyp_noether, h2)] + list(zip(verdict.conservation.profiles,
                                                       cons.profiles))
        for shared, separate in pairs:
            assert np.array_equal(shared.values, separate.values)
            assert shared.passed == separate.passed

    def test_summary_structure(self, paper400):
        problem, traj, group, zp = paper400
        s = check_noether(problem, traj, zp, group).summary()
        assert s["verdict"] == "pass"
        assert set(s["premises"]) == {"EL-1", "EL-2", "H1", "H2", "invariance"}
        assert s["conservation"]["verdict"] == "pass"

    def test_no_delay_pipeline_end_to_end(self):
        # with tau = 0 the hypothesis profiles are trivial, the quantities
        # collapse to one profile, and the whole chain still passes
        problem, traj, group, _ = build_bundle("classical-line", n=100)
        zp = integrate_z(problem, traj)
        verdict = check_noether(problem, traj, zp, group, tol=1e-8)
        assert verdict.passed
        assert np.max(np.abs(verdict.hyp_extremal.values)) == 0.0
        assert len(verdict.conservation.profiles) == 1
        assert verdict.conservation.profiles[0].label == "Q on [a, b]"

    def test_damped_problem_full_check(self):
        problem, traj, group, _ = build_bundle("herglotz-damped", n=100)
        zp = integrate_z(problem, traj)
        verdict = check_noether(problem, traj, zp, group)
        assert verdict.passed, verdict.first_failure


def test_reports_compare_by_identity():
    # the report dataclasses hold numpy arrays: == is identity, a bool,
    # where field-wise comparison would raise on the arrays' truth value
    problem, traj, group, _ = build_paper(20)

    def run():
        zp = integrate_z(problem, traj)
        cons = conserved_quantities(problem, traj, zp, group)
        return (zp, el_residuals(problem, traj, zp)[0],
                group_variation(problem, traj, zp, group), cons.profiles[0],
                cons, check_noether(problem, traj, zp, group))

    for a, b in zip(run(), run()):
        assert (a == b) is False and (a == a) is True
        assert (a != b) is True
