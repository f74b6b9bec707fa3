import argparse
import copy
import csv
import dataclasses
import functools
import json
import math
import operator
import os
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from herglotz.bundles import BUNDLE_NAMES, bundle
from herglotz import cli
from herglotz.cli import main
from herglotz.config import load_config, parse_config, schema_path
from herglotz.errors import ConfigError
from herglotz.solver import SolveOptions
from herglotz.trajectory import PiecewiseTrajectory, SampledTrajectory


def _closed_objects(node, path=()):
    """(path, node) for each object of a JSON schema with additionalProperties
    false; the items of an array are reached through index 0."""
    if node.get("additionalProperties") is False:
        yield path, node
    for key, sub in node.get("properties", {}).items():
        yield from _closed_objects(sub, path + (key,))
    if "items" in node:
        yield from _closed_objects(node["items"], path + (0,))


def write_config(tmp_path, **overrides):
    data = {
        "interval": {"a": 0.0, "b": 2.0},
        "tau": 1.0,
        "n": 100,
        "gamma": 0.0,
        "beta": 1.0,
        "history": "-t",
        "lagrangian": "dxtau^2 + z",
        "trajectory": {"backend": "pieces", "pieces": [
            {"from": -1.0, "to": 0.0, "expr": "-t"},
            {"from": 0.0, "to": 1.0, "expr": "0"},
            {"from": 1.0, "to": 2.0, "expr": "(t - 1)^3"},
        ]},
        "group": {"sigma": "1", "xi": "0"},
    }
    data.update(overrides)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    return path


class TestExitCodes:
    def test_paper_example_passes(self, tmp_path, capsys):
        rc = main(["paper-example", "--n", "200", "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "z(2) = " in out
        assert "drift" in out
        assert "paper-example: PASS" in out

    def test_paper_example_honours_tol_zero(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["paper-example", "--n", "200", "--tol", "0", "--out", str(out)])
        assert rc == 1
        summary = json.loads((out / "paper_example.json").read_text())
        tolerances = ([c["tolerance"] for c in summary["checks"]]
                      + [summary["invariance"]["tolerance"]]
                      + [p["tolerance"] for p in summary["conservation"]["profiles"]])
        assert len(tolerances) == 9
        assert all(t == 0.0 for t in tolerances)

    def test_paper_example_builds_one_node_table(self, tmp_path, capsys,
                                                 node_table_calls):
        assert main(["paper-example", "--n", "200", "--out", str(tmp_path / "o")]) == 0
        assert len(node_table_calls) == 1

    def test_syntax_error_is_exit_2_with_offset(self, tmp_path, capsys):
        cfg = write_config(tmp_path, lagrangian="dxtau^2 +")
        rc = main(["check-el", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "byte offset 9" in err

    @pytest.mark.parametrize("command", ["integrate", "check-el", "solve"])
    @pytest.mark.parametrize("lagrangian", ["dx^2" + "+x" * 3000,
                                            "(" * 2000 + "dx^2" + ")" * 2000],
                             ids=["sum-of-3001", "2000-groups"])
    def test_deeply_nested_expression_is_exit_2(self, tmp_path, capsys, command,
                                                lagrangian):
        data = json.loads(bundle("classical-line").config_path.read_text())
        data["lagrangian"] = lagrangian
        cfg = tmp_path / "problem.json"
        cfg.write_text(json.dumps(data))
        assert main([command, str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "nested deeper" in err
        assert "Traceback" not in err

    def test_sum_of_200_terms_is_accepted(self, tmp_path, capsys):
        data = json.loads(bundle("classical-line").config_path.read_text())
        data["lagrangian"] = "dx^2" + "+0*x" * 199
        cfg = tmp_path / "problem.json"
        cfg.write_text(json.dumps(data))
        assert main(["check-el", str(cfg), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("text, message", [
        ("t,x\n0,0\n0.5\n1,1\n", "Line #3 (got 1 columns instead of 2)"),
        ("", "empty file"),
    ], ids=["ragged", "empty"])
    def test_malformed_samples_csv_is_exit_2(self, tmp_path, capsys, text, message):
        (tmp_path / "s.csv").write_text(text)
        cfg = write_config(tmp_path, interval={"a": 0.0, "b": 1.0}, tau=0.0, n=2,
                           history="0", lagrangian="dx^2",
                           trajectory={"backend": "samples", "path": "s.csv"})
        assert main(["integrate", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "s.csv" in err and message in err

    def test_piece_boundary_off_the_nodes_is_exit_2(self, tmp_path, capsys):
        # classical-line's x = t split at 0.333, which no node of n = 100 holds
        data = json.loads(bundle("classical-line").config_path.read_text())
        data["trajectory"]["pieces"] = [{"from": 0.0, "to": 0.333, "expr": "t"},
                                        {"from": 0.333, "to": 1.0, "expr": "t"}]
        cfg = tmp_path / "problem.json"
        cfg.write_text(json.dumps(data))
        assert main(["check-el", str(cfg), "--n", "100", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "t=0.333 is not a grid node (h=0.01)" in err

    def test_non_extremal_fails_check_el(self, tmp_path, capsys):
        rc = main(["check-el", "paper-s4-nonextremal", "--n", "400",
                   "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out
        sup = json.loads((tmp_path / "o" / "check_el.json").read_text())[0]["sup_norm"]
        assert abs(sup - 2.0 / math.e) < 0.02

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("cmd", ["check-el", "check-dbr", "check-hyp", "noether"])
    def test_grid_too_coarse_for_a_report_is_exit_2(self, tmp_path, capsys, cmd, n):
        # every node of a report lies within 2h of a kink of x(t) = t or of
        # its tau images, so no sample is left to judge
        rc = main([cmd, "paper-s4-nonextremal", "--n", str(n), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"n = {n} is too coarse for this check" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["check-el", "check-dbr", "noether"])
    def test_coarse_grid_with_samples_left_fails_the_non_extremal(self, tmp_path, cmd):
        assert main([cmd, "paper-s4-nonextremal", "--n", "12",
                     "--out", str(tmp_path / "o")]) == 1

    def test_tolerance_override_flips_verdicts(self, tmp_path):
        out = str(tmp_path / "o")
        assert main(["check-dbr", "paper-s4", "--n", "100", "--out", out,
                     "--tol", "1e-30"]) == 1
        assert main(["check-el", "paper-s4-nonextremal", "--n", "100", "--out", out,
                     "--tol", "10"]) == 0

    def test_missing_trajectory_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        data = json.loads(cfg.read_text())
        del data["trajectory"]
        cfg.write_text(json.dumps(data))
        rc = main(["integrate", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "trajectory" in capsys.readouterr().err

    def test_unaligned_n_override(self, tmp_path, capsys):
        rc = main(["integrate", "paper-s4", "--n", "5", "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_lagrangian_naming_eps_is_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, lagrangian="dxtau^2 + eps*z")
        assert main(["check-el", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "unknown identifier 'eps' (byte offset 10)" in capsys.readouterr().err

    def test_unknown_config_path(self, tmp_path, capsys):
        rc = main(["integrate", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_invalid_json(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        rc = main(["integrate", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "line" in capsys.readouterr().err

    def test_numerical_failure_is_exit_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, lagrangian="log(x - 10)",
            trajectory={"backend": "pieces",
                        "pieces": [{"from": -1.0, "to": 2.0, "expr": "-t"}]})
        rc = main(["integrate", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_blow_up_inside_a_step_is_exit_3(self, tmp_path, capsys):
        # z' = z^2 from z(0) = 1 blows up at t = 1: a stage sees z = inf
        cfg = write_config(tmp_path, gamma=1.0, lagrangian="z^2")
        rc = main(["integrate", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err

    def test_trial_whose_gradient_overflows_is_a_rejected_step(self, tmp_path, capsys):
        # minimizing w(b) = -z(b), where z' = dx^2/2 + z^2/2 and z(0) = 0.5,
        # maximizes z(b) and drives z towards blow-up: some trials pass
        # Armijo with a z-path finite at the stops but not at a panel
        # sample, so their gradient raises NonFinite; the solve rejects them
        # and ends on a stop reason instead of aborting
        cfg = tmp_path / "problem.json"
        cfg.write_text(json.dumps({
            "interval": {"a": 0.0, "b": 1.0}, "tau": 0.0, "n": 100, "gamma": -0.5,
            "beta": 0.6931471805599453, "history": "0",
            "lagrangian": "-dx^2 / 2 - z^2 / 2"}))
        rc = main(["solve", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "stop_reason = line_search_failed" in capsys.readouterr().out
        # the record pins the iterates: 6 iterations, and w(b) = -z(b) after each
        summary = json.loads((tmp_path / "o" / "solve.json").read_text())
        assert summary["iterations"] == 6
        assert summary["objective_history"] == [-float.fromhex(v) for v in (
            "0x1.03c1266ed5db7p+0", "0x1.27f6f4d2f77bdp+0", "0x1.d6fb3d5401de8p+1",
            "0x1.9923f529847e6p+3", "0x1.c7e1f8a03c459p+7", "0x1.a03b126e32a1bp+10",
            "0x1.35e7e1305b0b0p+16")]

    @pytest.mark.parametrize("lagrangian, code", [
        ("x + z", 2), ("dx*dx + z", 2), ("z^2 + 0*x", 2), ("t + z", 0), ("z^2", 0)])
    def test_non_finite_read_is_exit_2_where_L_reads_it(self, tmp_path, lagrangian, code):
        # x = exp(1000 t) overflows from t = 0.71 on: a bad binding for an L
        # that reads x or x', nothing for one that reads neither
        cfg = write_config(
            tmp_path, interval={"a": 0.0, "b": 1.0}, tau=0.0, n=20, gamma=0.5,
            history="1", lagrangian=lagrangian,
            trajectory={"backend": "pieces",
                        "pieces": [{"from": 0.0, "to": 1.0, "expr": "exp(1000*t)"}]})
        with np.errstate(over="ignore"):
            rc = main(["integrate", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == code

    def test_affine_blow_up_is_exit_3(self, tmp_path, capsys):
        # z' = 50 z from z(0) = 1 overflows before t = 20, on the affine path
        cfg = write_config(
            tmp_path, interval={"a": 0.0, "b": 20.0}, n=200, gamma=1.0,
            beta=20.0, history="t", lagrangian="50*z",
            trajectory={"backend": "pieces",
                        "pieces": [{"from": -1.0, "to": 20.0, "expr": "t"}]})
        rc = main(["integrate", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err

    def test_overflowed_sine_is_exit_3(self, tmp_path, capsys):
        # exp(1000*dx) overflows along the line x = t; sin(inf) is NaN, so z
        # turns non-finite
        data = json.loads(bundle("classical-line").config_path.read_text())
        data["lagrangian"] = "sin(exp(1000*dx))"
        cfg = tmp_path / "problem.json"
        cfg.write_text(json.dumps(data))
        rc = main(["integrate", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err

    def test_overflow_without_z_integrates(self, tmp_path, capsys):
        # exp(1000*dx) overflows along the line x = t, but the z-partial of
        # this integrand is exactly 1
        data = json.loads(bundle("classical-line").config_path.read_text())
        data["lagrangian"] = "sqrt(exp(-exp(1000*dx))) + z"
        cfg = tmp_path / "problem.json"
        cfg.write_text(json.dumps(data))
        assert main(["integrate", str(cfg), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("command", ["solve", "invariance", "noether"])
    def test_underflowed_integrating_factor_is_exit_3(self, tmp_path, capsys, command):
        # z(b) = 0.87 is finite but lambda(b) = exp(-800) underflows to 0.0,
        # which the gradient and the invariance defect divide by
        data = {"interval": {"a": 0.0, "b": 1.0}, "tau": 0.0, "n": 2000, "gamma": 0.0,
                "beta": 1.0, "history": "0", "lagrangian": "exp(800*(t - 1))*dx^2 + 800*z"}
        if command != "solve":
            data.update(trajectory={"backend": "pieces", "pieces": [
                {"from": 0.0, "to": 1.0, "expr": "t"}]}, group={"sigma": "0", "xi": "1"})
        cfg = tmp_path / "problem.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command, str(cfg), "--out", str(out)])
        assert rc == 3
        assert "lambda" in capsys.readouterr().err
        for report in out.glob("*"):
            assert "NaN" not in report.read_text()

    @pytest.mark.parametrize("command", ["integrate", "solve"])
    def test_tol_is_a_usage_error_where_nothing_is_checked(self, tmp_path, capsys,
                                                          command):
        with pytest.raises(SystemExit) as exc:
            main([command, "classical-line", "--tol", "5", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "-inf", "x"])
    def test_tol_must_be_finite_and_non_negative(self, tmp_path, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main(["check-el", "paper-s4", f"--tol={tol}", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "need a finite tolerance >= 0" in capsys.readouterr().err

    def test_sample_time_nan_is_config_error(self, tmp_path, capsys):
        nodes = np.linspace(0.0, 1.0, 11)
        rows = [f"{t!r},{t * t!r}" for t in nodes]
        rows[4] = f"nan,{nodes[4] ** 2!r}"
        (tmp_path / "s.csv").write_text("t,x\n" + "\n".join(rows) + "\n")
        cfg = write_config(tmp_path, interval={"a": 0.0, "b": 1.0}, tau=0.0, n=10,
                           beta=1.0, history="0", lagrangian="dx^2",
                           trajectory={"backend": "samples", "path": "s.csv"})
        assert main(["integrate", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "sample times do not match the grid nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("end", ["from", "to"])
    def test_non_finite_piece_end_is_config_error(self, tmp_path, capsys, end):
        data = json.loads(write_config(tmp_path).read_text())
        data["trajectory"]["pieces"][1][end] = float("nan")
        cfg = tmp_path / "nan.json"
        cfg.write_text(json.dumps(data))
        assert main(["integrate", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "piece 1 has a non-finite end" in capsys.readouterr().err


class TestSubcommands:
    def test_integrate_outputs(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["integrate", "paper-s4", "--n", "200", "--out", str(out)])
        assert rc == 0
        data = json.loads((out / "integrate.json").read_text())
        assert abs(data["z_b"] - (math.e ** 2 - math.e)) < 1e-8
        lines = (out / "zpath.csv").read_text().splitlines()
        assert lines[0] == "t,z,lambda"
        assert len(lines) == 202

    def test_noether_and_invariance(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["noether", "paper-s4", "--n", "200", "--out", str(out)]) == 0
        verdict = json.loads((out / "noether.json").read_text())
        assert verdict["verdict"] == "pass"
        assert verdict["first_failure"] is None
        assert main(["invariance", "paper-s4", "--n", "200", "--out", str(out)]) == 0

    def test_qpath_csv_has_three_fields_per_row(self, tmp_path, capsys):
        # the interval labels hold a comma, so they are quoted
        out = tmp_path / "o"
        assert main(["noether", "paper-s4", "--n", "100", "--out", str(out)]) == 0
        with open(out / "qpath.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["t", "Q", "interval_label"]
        assert len(rows) > 100 and all(len(r) == 3 for r in rows)
        assert {r[2] for r in rows[1:]} == {"Q1 on [a, b-tau]", "Q2 on [b-tau, b]"}

    def test_a_directory_named_like_a_bundle_is_no_config(self, tmp_path, capsys,
                                                          monkeypatch):
        # an --out directory named after the bundle leaves the bundle reachable
        monkeypatch.chdir(tmp_path)
        assert main(["integrate", "paper-s4", "--n", "100", "--out", "paper-s4"]) == 0
        assert (tmp_path / "paper-s4").is_dir()
        assert main(["check-el", "paper-s4", "--n", "100", "--out", "o"]) == 0
        assert "EL" in capsys.readouterr().out

    def test_check_hyp(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["check-hyp", "paper-s4", "--n", "200", "--out", str(out)]) == 0
        assert (out / "hyp_extremal.csv").exists()
        assert (out / "hyp_noether.csv").exists()

    def test_solve_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["solve", "classical-line", "--n", "60", "--out", str(out)])
        assert rc == 0
        data = json.loads((out / "solve.json").read_text())
        assert data["converged"] is True
        assert data["stop_reason"] == "converged"
        assert "stop_reason = converged" in capsys.readouterr().out
        assert abs(data["z_b"] - 1.0) < 1e-3
        assert (out / "solution.csv").exists()
        assert (out / "solution_zpath.csv").exists()

    def test_check_commands_make_no_eval_many_call(self, tmp_path, capsys,
                                                   trajectory_reads):
        # every check reads x and x' once, by its z-path's grid read, and x''
        # by ddx_at_nodes: on the bundles and on a samples-backend config
        import herglotz as hg
        from herglotz.trajectory import trajectory_csv
        from conftest import build_paper, wavy_sampled

        problem, _, _, _ = build_paper(100)
        (tmp_path / "nodes.csv").write_text(trajectory_csv(wavy_sampled(problem)))
        sampled = write_config(tmp_path, n=100,
                               trajectory={"backend": "samples", "path": "nodes.csv"})
        reads = [trajectory_reads(cls) for cls in (PiecewiseTrajectory, SampledTrajectory)]
        for config in (*BUNDLE_NAMES, str(sampled)):
            for command in ("integrate", "check-el", "check-dbr", "check-hyp",
                            "invariance", "noether"):
                out = tmp_path / Path(config).stem / command
                assert main([command, config, "--out", str(out)]) in (0, 1)
        assert main(["paper-example", "--out", str(tmp_path / "paper")]) == 0
        assert reads == [[], []]

    def test_reports_are_bit_identical(self, tmp_path, capsys):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["integrate", "paper-s4", "--n", "100",
                         "--out", str(out)]) == 0
        assert (out1 / "zpath.csv").read_bytes() == (out2 / "zpath.csv").read_bytes()
        assert (out1 / "integrate.json").read_bytes() == (out2 / "integrate.json").read_bytes()

    def test_csv_values_roundtrip_exactly(self, tmp_path, capsys):
        import herglotz as hg
        from conftest import build_paper

        out = tmp_path / "o"
        assert main(["integrate", "paper-s4", "--n", "100", "--out", str(out)]) == 0
        problem, traj, _, _ = build_paper(100)
        zp = hg.integrate_z(problem, traj)
        rows = np.genfromtxt(out / "zpath.csv", delimiter=",", names=True)
        np.testing.assert_array_equal(rows["z"], zp.z)
        np.testing.assert_array_equal(rows["lambda"], zp.lam)


class TestConfigHandling:
    def test_schema_ships(self):
        path = schema_path()
        assert path.exists()
        schema = json.loads(path.read_text())
        assert schema["type"] == "object"
        assert "lagrangian" in schema["properties"]

    def test_samples_backend(self, tmp_path, capsys):
        import herglotz as hg
        from herglotz.reportio import write_text_atomic
        from herglotz.trajectory import trajectory_csv
        from conftest import build_paper

        problem, ptraj, _, _ = build_paper(100)
        x, _, _ = ptraj.eval_many(problem.grid.nodes)
        straj = hg.SampledTrajectory(problem.grid, x)
        write_text_atomic(tmp_path / "nodes.csv", trajectory_csv(straj))
        cfg = write_config(tmp_path, n=100,
                           trajectory={"backend": "samples", "path": "nodes.csv"})
        out = tmp_path / "o"
        rc = main(["integrate", str(cfg), "--out", str(out)])
        assert rc == 0
        data = json.loads((out / "integrate.json").read_text())
        assert abs(data["z_b"] - (math.e ** 2 - math.e)) < 1e-3

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        data = json.loads(cfg.read_text())
        del data["gamma"]
        cfg.write_text(json.dumps(data))
        assert main(["integrate", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_solver_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solver={"stepsize": 1.0})
        assert main(["solve", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("key", ["armijo_c", "shrink", "initial_step"])
    def test_line_search_constants_are_not_settable(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, solver={key: 0.5})
        assert main(["solve", str(cfg), "--n", "10", "--out", str(tmp_path / "o")]) == 2
        assert f".solver: unknown keys ['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize("path, key", [
        ((), "sence"),
        ((), "sense"),
        (("interval",), "c"),
        (("group",), "eta"),
        (("trajectory",), "pices"),
        (("trajectory", "pieces", 1), "exp"),
    ], ids=["top", "sense", "interval", "group", "trajectory", "piece"])
    def test_unknown_key_is_config_error(self, tmp_path, capsys, path, key):
        data = json.loads(write_config(tmp_path).read_text())
        functools.reduce(operator.getitem, path, data)[key] = "maximize"
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps(data))
        assert main(["integrate", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"unknown keys ['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize("trajectory, message", [
        ({"path": "nowhere.csv"}, "key 'path' does not go with backend 'pieces'"),
        ({"backend": "samples", "path": "nodes.csv"},
         "key 'pieces' does not go with backend 'samples'"),
    ], ids=["path-with-pieces", "pieces-with-path"])
    def test_trajectory_takes_its_backends_key_only(self, tmp_path, capsys,
                                                    trajectory, message):
        data = json.loads(write_config(tmp_path).read_text())
        data["trajectory"].update(trajectory)
        cfg = tmp_path / "stray.json"
        cfg.write_text(json.dumps(data))
        assert main(["integrate", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(schema_path().read_text())
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(data, schema)
        jsonschema.validate(json.loads(write_config(tmp_path).read_text()), schema)

    def test_schema_closes_the_objects_the_parser_closes(self, tmp_path):
        # every object the schema closes with additionalProperties: false
        # takes exactly its listed keys: a listed key set to a bad value is
        # rejected for its value, any other key of the schema as unknown
        schema = json.loads(schema_path().read_text())
        closed = dict(_closed_objects(schema))
        assert set(closed) == {(), ("interval",), ("trajectory",),
                               ("trajectory", "pieces", 0), ("group",), ("solver",)}
        names = {key for node in closed.values() for key in node["properties"]}
        base = json.loads(write_config(tmp_path, solver={}).read_text())
        for path, node in closed.items():
            for key in sorted(names | {"bogus"}):
                data = copy.deepcopy(base)
                functools.reduce(operator.getitem, path, data)[key] = [[None]]
                with pytest.raises(ConfigError) as info:
                    parse_config(data)
                unknown = f"unknown keys ['{key}']" in str(info.value)
                assert unknown == (key not in node["properties"]), (path, key)
        assert set(closed[("solver",)]["properties"]) == {
            f.name for f in dataclasses.fields(SolveOptions)}

    @pytest.mark.parametrize("override", [
        {"solver": {"max_iters": "10"}},
        {"solver": {"grad_tol": None}},
        {"solver": {"seed_guess": ["a"] * 16}},
        {"solver": {"seed_guess": {"a": 1}}},
        {"solver": {"max_iters": True}},
        {"interval": {"a": False, "b": 2.0}},
        # written as Infinity, which json reads as the inf that 1e999 reads as
        {"solver": {"grad_tol": float("inf")}},
        {"solver": {"grad_tol": True}},
        {"solver": {"grad_tol": "1"}},
        {"solver": {"grad_tol": [1]}},
    ], ids=["string-int", "null-number", "string-seed", "object-seed",
            "bool-int", "bool-number", "inf-grad-tol", "bool-grad-tol",
            "string-grad-tol", "array-grad-tol"])
    def test_malformed_value_is_config_error(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path, **override)
        assert main(["solve", str(cfg), "--n", "10", "--out", str(tmp_path / "o")]) == 2
        assert "herglotz: " in capsys.readouterr().err

    def test_bad_backend(self, tmp_path, capsys):
        cfg = write_config(tmp_path, trajectory={"backend": "mystery"})
        assert main(["integrate", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_load_config_builds(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        problem, traj, group, opts = cfg.build()
        assert problem.grid.n == 100
        assert traj is not None
        assert group is not None


def _scipy_loaded_after(statements, names=None):
    """Whether a fresh interpreter has loaded any scipy module after running
    the statements, with the package on its path; given module names, which
    of them it has loaded, in order."""
    src = Path(__file__).resolve().parents[1] / "src"
    report = ("any(m.partition('.')[0] == 'scipy' for m in sys.modules)" if names is None
              else f"[m for m in {list(names)!r} if m in sys.modules]")
    probe = f"import sys\n{statements}\nprint({report})"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


LAPACK_MODULES = ("scipy.linalg", "scipy.linalg._flapack")


def test_import_loads_no_scipy():
    # scipy's import was most of a CLI command's start-up; only a spline
    # build, on its slope solve, loads it
    assert _scipy_loaded_after("import herglotz.cli") == "False"


@pytest.mark.parametrize("argv", [["invariance", "paper-s4"], ["paper-example"]])
def test_check_commands_load_no_scipy(tmp_path, argv):
    # the piecewise bundles read no node-value spline, the z-path midpoints
    # included
    argv = argv + ["--out", str(tmp_path)]
    assert _scipy_loaded_after(
        f"import herglotz.cli\nassert herglotz.cli.main({argv!r}) == 0") == "False"


@pytest.mark.parametrize("command", ["solve", "check-el"])
def test_spline_builds_load_flapack_only(tmp_path, command):
    # a spline build takes LAPACK's gttrf and gttrs from scipy's extension
    # module, without running the scipy.linalg package
    from herglotz.trajectory import trajectory_csv
    from conftest import build_paper, wavy_sampled

    if command == "solve":
        argv = ["solve", "paper-s4", "--n", "20"]
    else:
        problem, _, _, _ = build_paper(100)
        (tmp_path / "nodes.csv").write_text(trajectory_csv(wavy_sampled(problem)))
        cfg = write_config(tmp_path, n=100,
                           trajectory={"backend": "samples", "path": "nodes.csv"})
        argv = ["check-el", str(cfg)]
    argv += ["--out", str(tmp_path / "o")]
    assert _scipy_loaded_after(
        f"import herglotz.cli\nassert herglotz.cli.main({argv!r}) in (0, 1)",
        LAPACK_MODULES) == "['scipy.linalg._flapack']"


# solve_banded on a pivoting band and a not-a-knot CubicSpline, saved to
# {path!r}: scipy's own LAPACK users
SCIPY_BITS = """
import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded
band = np.array([[0.0, 3.0, -1.0, 2.0, 0.5], [1e-3, 4.0, 2.0, -5.0, 3.0],
                 [2.0, 1.0, 0.25, 7.0, 0.0]])
x = np.linspace(0.0, 3.0, 11)
np.save({path!r}, np.concatenate([solve_banded((1, 1), band, np.arange(5.0)),
                                  CubicSpline(x, np.sin(3 * x)).c.ravel()]))
"""


def test_scipy_reuses_the_loaded_lapack(tmp_path):
    # scipy imported after the package's first factorization hands out the
    # very wrappers the package uses, and its LAPACK users give the bits
    # they give with scipy.linalg imported first
    first, after = tmp_path / "first.npy", tmp_path / "after.npy"
    assert _scipy_loaded_after(
        "import scipy.linalg\n" + SCIPY_BITS.format(path=str(first)),
        LAPACK_MODULES) == str(list(LAPACK_MODULES))
    assert _scipy_loaded_after(
        "import numpy as np\n"
        "from herglotz import trajectory\n"
        "trajectory.Tridiagonal(np.array([[0.0, 1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 1.0, 0.0]]))\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "dgttrf, dgttrs = trajectory._lapack()\n"
        "import scipy.linalg.lapack as lapack\n"
        "assert lapack.dgttrf is dgttrf and lapack.dgttrs is dgttrs\n"
        + SCIPY_BITS.format(path=str(after)),
        LAPACK_MODULES) == str(list(LAPACK_MODULES))
    assert first.read_bytes() == after.read_bytes()


def test_missing_flapack_is_import_error():
    # with no scipy.linalg._flapack to find, the first factorization says
    # which module it looked for, and where
    assert _scipy_loaded_after(
        "import importlib.machinery\n"
        "import numpy as np\n"
        "import scipy\n"
        "from herglotz.trajectory import Tridiagonal\n"
        "find = importlib.machinery.PathFinder.find_spec\n"
        "importlib.machinery.PathFinder.find_spec = classmethod(\n"
        "    lambda cls, name, path=None, target=None:\n"
        "    None if name == '_flapack' else find(name, path, target))\n"
        "try:\n"
        "    Tridiagonal(np.ones((3, 4)))\n"
        "except ImportError as error:\n"
        "    assert error.name == 'scipy.linalg._flapack', error\n"
        "    assert str(error).startswith('no scipy.linalg._flapack in '), error\n"
        "else:\n"
        "    raise AssertionError('no ImportError')",
        LAPACK_MODULES) == "[]"


def _parsed(parse, argv, capsys):
    """What a parse prints and returns: (exit code, stdout, stderr), or the
    parsed namespace."""
    try:
        result = vars(parse(argv))
    except SystemExit as stop:
        result = stop.code
    out = capsys.readouterr()
    return result, out.out, out.err


COMMANDS = ("integrate", "check-el", "check-dbr", "check-hyp", "invariance", "noether",
            "solve", "paper-example")
COMMAND_RESTS = {"help": ["--help"], "no-config": [], "bad-n": ["paper-s4", "--n", "q"],
                 "bogus": ["paper-s4", "--bogus"], "extra": ["paper-s4", "extra"]}
OTHER_ARGVS = {"bare": [], "help": ["--help"], "version": ["--version"], "unknown": ["bogus"],
               "option-first": ["--n", "5", "integrate", "paper-s4"]}
# every command line of the parity tests, then one that parses on each command
ARGVS = ([[command, *rest] for command in COMMANDS for rest in COMMAND_RESTS.values()]
         + list(OTHER_ARGVS.values())
         + [[name, *(["paper-s4"] if config else []), "--n", "200", "--out", "o",
             *(["--tol", "1e-3"] if tol else [])] for name, _, _, config, tol in cli._COMMANDS])


def _fingerprint(parser):
    """What a parse could change in a parser and the parsers under it: each
    one's help text and defaults, and each action's dest, default, option
    strings and choices (the parsers of a subparsers action, in turn)."""
    actions = []
    for action in parser._actions:
        choices = action.choices
        if isinstance(action, argparse._SubParsersAction):
            choices = {name: _fingerprint(sub) for name, sub in choices.items()}
        actions.append((action.dest, repr(action.default), tuple(action.option_strings),
                        repr(choices)))
    return parser.format_help(), repr(parser._defaults), actions


class TestParser:
    """cli.main parses with one parser, built at import (_PARSER): it builds
    none per call, parses as a fresh parser does, and no parse changes it."""

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("rest", COMMAND_RESTS.values(), ids=COMMAND_RESTS)
    def test_one_command_parses_like_the_full_parser(self, command, rest, capsys):
        argv = [command, *rest]
        assert _parsed(cli.parse_args, argv, capsys) == \
            _parsed(cli.build_parser().parse_args, argv, capsys)

    @pytest.mark.parametrize("argv", OTHER_ARGVS.values(), ids=OTHER_ARGVS)
    def test_other_command_lines_use_the_full_parser(self, argv, capsys):
        assert _parsed(cli.parse_args, argv, capsys) == \
            _parsed(cli.build_parser().parse_args, argv, capsys)

    def test_main_builds_no_parser(self, monkeypatch, tmp_path, capsys):
        built = []
        original = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        with pytest.raises(SystemExit):
            main(["check-el", "--help"])
        assert main(["check-el", "paper-s4", "--out", str(tmp_path)]) == 0
        assert built == []
        # the counter sees a build: the parser and one subparser per command
        cli.build_parser()
        assert len(built) == 1 + len(COMMANDS)

    def test_no_parse_changes_the_shared_parser(self, capsys):
        before = _fingerprint(cli._PARSER)
        assert before == _fingerprint(cli.build_parser())
        codes = [_parsed(cli.parse_args, argv, capsys)[0] for argv in ARGVS]
        # help, version, usage errors and parses that succeed were all run
        assert {c for c in codes if not isinstance(c, dict)} == {0, 2}
        assert any(isinstance(c, dict) for c in codes)
        assert _fingerprint(cli._PARSER) == before

    def test_threads_parse_as_one_thread_does(self, capsys):
        def parsed(argv):
            try:
                return vars(cli.parse_args(argv))
            except SystemExit as stop:
                return stop.code

        argvs = [a for a in ARGVS if "--help" not in a and "--version" not in a] * 20
        want = [parsed(argv) for argv in argvs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the parses
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(parsed, argvs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == want


def test_bundle_name_reads_the_config_only(monkeypatch, tmp_path):
    read = []
    original = Path.read_text

    def recorded(self, *args, **kwargs):
        read.append(self.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", recorded)
    assert main(["integrate", "paper-s4", "--out", str(tmp_path / "i")]) == 0
    assert read == ["paper-s4.json"]
    assert main(["paper-example", "--n", "200", "--out", str(tmp_path / "p")]) == 0
    assert read[1:] == ["paper-s4.expected.json", "paper-s4.json"]
