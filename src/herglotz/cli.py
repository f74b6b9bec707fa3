"""Batch front end: subcommands over problem config files, bundled problems,
machine-readable reports.

Exit codes: 0 all verdicts pass, 1 a check failed its tolerance,
2 configuration/parse error, 3 numerical failure (non-finite or domain).
Reports land under --out (default ./out) as CSV profiles plus JSON summaries;
identical inputs produce bit-identical files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bundles import BUNDLE_NAMES, bundle
from .conditions import TOLERANCES, dbr_residuals, el_residuals, hypothesis_profiles
from .config import load_config, schema_path
from .errors import (
    ConfigError,
    DomainError,
    ExpressionSyntaxError,
    HerglotzError,
    NonFinite,
)
from .integrate import integrate_z
from .noether import check_noether, group_variation
from .reportio import fmt, write_json, write_text_atomic
from .solver import solve_direct
from .trajectory import trajectory_csv

_PAPER_Z_TOL = 1e-8


def _load(config_arg: str):
    p = Path(config_arg)
    if p.exists():
        return load_config(p)
    if config_arg in BUNDLE_NAMES:
        return bundle(config_arg).config()
    raise ConfigError(f"no such config file or bundle: {config_arg}")


def _built(args, need_traj=False, need_group=False):
    cfg = _load(args.config)
    problem, traj, group, opts = cfg.build(n_override=args.n)
    if need_traj and traj is None:
        raise ConfigError("this command needs a trajectory section in the config")
    if need_group and group is None:
        raise ConfigError("this command needs a group section in the config")
    return problem, traj, group, opts


def _verdict_line(summary: dict) -> str:
    return (f"{summary['label']}: sup_norm={fmt(summary['sup_norm'])} "
            f"tol={fmt(summary['tolerance'])} {summary['verdict'].upper()}")


def _tol(args, check: str) -> float:
    return args.tol if args.tol is not None else TOLERANCES[check]


def _emit(out: Path, reports: dict) -> list:
    """Write each residual report's profile under its stem and print its
    verdict; return the labels of the failed ones."""
    for stem, rep in reports.items():
        write_text_atomic(out / f"{stem}.csv", rep.csv())
        print(_verdict_line(rep.summary()))
    return [rep.label for rep in reports.values() if not rep.passed]


def _emit_invariance(out: Path, prof) -> bool:
    write_text_atomic(out / "invariance.csv", prof.csv())
    print(_verdict_line(prof.summary()))
    return prof.passed


def _emit_conservation(out: Path, cons) -> list:
    write_text_atomic(out / "qpath.csv", cons.csv())
    for p in cons.profiles:
        print(f"{p.label}: mean={fmt(p.mean)} drift={fmt(p.drift)} "
              f"tol={fmt(p.tolerance)} {'PASS' if p.passed else 'FAIL'}")
    return [p.label for p in cons.profiles if not p.passed]


def cmd_integrate(args) -> int:
    problem, traj, _, _ = _built(args, need_traj=True)
    zpath = integrate_z(problem, traj)
    out = Path(args.out)
    write_text_atomic(out / "zpath.csv", zpath.csv())
    write_json(out / "integrate.json",
               {"z_b": zpath.z_b, "lambda_b": zpath.lambda_b, "z_a": float(zpath.z[0])})
    print(f"z(b) = {fmt(zpath.z_b)}  lambda(b) = {fmt(zpath.lambda_b)}")
    return 0


def cmd_check_residuals(args) -> int:
    """check-el and check-dbr: the two interval reports of one condition."""
    check = args.command.removeprefix("check-")
    residuals = el_residuals if check == "el" else dbr_residuals
    problem, traj, _, _ = _built(args, need_traj=True)
    zpath = integrate_z(problem, traj)
    r1, r2 = residuals(problem, traj, zpath, _tol(args, check))
    out = Path(args.out)
    failed = _emit(out, {f"{check}1": r1, f"{check}2": r2})
    write_json(out / f"check_{check}.json", [r1.summary(), r2.summary()])
    return 1 if failed else 0


def cmd_check_hyp(args) -> int:
    problem, traj, group, _ = _built(args, need_traj=True)
    h1, h2 = hypothesis_profiles(problem, traj, group=group, tol=_tol(args, "hyp"))
    reports = {"hyp_extremal": h1}
    if h2 is not None:
        reports["hyp_noether"] = h2
    out = Path(args.out)
    failed = _emit(out, reports)
    write_json(out / "check_hyp.json", [rep.summary() for rep in reports.values()])
    return 1 if failed else 0


def cmd_invariance(args) -> int:
    problem, traj, group, _ = _built(args, need_traj=True, need_group=True)
    zpath = integrate_z(problem, traj)
    prof = group_variation(problem, traj, zpath, group, _tol(args, "inv"))
    out = Path(args.out)
    ok = _emit_invariance(out, prof)
    write_json(out / "invariance.json", prof.summary())
    return 0 if ok else 1


def cmd_noether(args) -> int:
    problem, traj, group, _ = _built(args, need_traj=True, need_group=True)
    zpath = integrate_z(problem, traj)
    verdict = check_noether(problem, traj, zpath, group, tol=args.tol)
    out = Path(args.out)
    _emit_conservation(out, verdict.conservation)
    write_json(out / "noether.json", verdict.summary())
    if verdict.passed:
        print("noether: PASS")
        return 0
    print(f"noether: FAIL (first failed premise: {verdict.first_failure})")
    return 1


def cmd_solve(args) -> int:
    problem, _, _, opts = _built(args)
    result = solve_direct(problem, opts)
    out = Path(args.out)
    write_text_atomic(out / "solution.csv", trajectory_csv(result.trajectory))
    write_json(out / "solve.json", result.summary())
    write_text_atomic(out / "solution_zpath.csv", result.zpath.csv())
    print(f"solve: z(b) = {fmt(result.z_b)}  iterations = {result.iterations}  "
          f"grad_norm = {fmt(result.final_grad_norm)}  stop_reason = {result.stop_reason}  "
          f"{'CONVERGED' if result.converged else 'NOT CONVERGED'}")
    return 0 if result.converged else 1


def cmd_paper_example(args) -> int:
    info = bundle("paper-s4")
    problem, traj, group, _ = info.config().build(n_override=args.n)
    expected = info.expected
    out = Path(args.out)
    zpath = integrate_z(problem, traj)
    write_text_atomic(out / "zpath.csv", zpath.csv())

    failures = []
    z_b_err = abs(zpath.z_b - expected["z_b"])
    print(f"z(2) = {fmt(zpath.z_b)}  (reference {fmt(expected['z_b'])}, "
          f"|error| = {fmt(z_b_err)})")
    if z_b_err > _PAPER_Z_TOL:
        failures.append("z(b)")
    tmid = 1.0
    nodes = problem.grid.main_nodes
    mid_idx = int(np.argmin(np.abs(nodes - tmid)))
    z_mid_err = None
    if abs(nodes[mid_idx] - tmid) < problem.grid.h / 4:
        z_mid_err = abs(zpath.z[mid_idx] - expected["z_at_1"])
        print(f"z(1) = {fmt(float(zpath.z[mid_idx]))}  (reference "
              f"{fmt(expected['z_at_1'])}, |error| = {fmt(z_mid_err)})")
        if z_mid_err > _PAPER_Z_TOL:
            failures.append("z(1)")
    lam_err = float(np.max(np.abs(zpath.lam - np.exp(-nodes))))
    print(f"max |lambda(t) - exp(-t)| over nodes = {fmt(lam_err)}")
    if lam_err > _PAPER_Z_TOL:
        failures.append("lambda")

    verdict = check_noether(problem, traj, zpath, group, tol=args.tol)
    d1, d2 = dbr_residuals(problem, traj, zpath, _tol(args, "dbr"))
    reports = {"el1": verdict.el1, "el2": verdict.el2, "dbr1": d1, "dbr2": d2,
               "hyp_extremal": verdict.hyp_extremal}
    if verdict.hyp_noether is not None:
        reports["hyp_noether"] = verdict.hyp_noether
    failures += _emit(out, reports)
    if not _emit_invariance(out, verdict.invariance):
        failures.append("invariance")
    failures += _emit_conservation(out, verdict.conservation)
    summary = {
        "z_b": zpath.z_b,
        "z_b_reference": expected["z_b"],
        "z_b_error": z_b_err,
        "z_mid_error": z_mid_err,
        "lambda_max_error": lam_err,
        "checks": [rep.summary() for rep in reports.values()],
        "invariance": verdict.invariance.summary(),
        "conservation": verdict.conservation.summary(),
        "verdict": "pass" if not failures else "fail",
        "failures": failures,
    }
    write_json(out / "paper_example.json", summary)
    print(f"paper-example: {'PASS' if not failures else 'FAIL'}")
    return 0 if not failures else 1


# name, handler, help line, whether it takes a config, whether it takes --tol
_COMMANDS = (
    ("integrate", cmd_integrate, "integrate z and lambda along the config trajectory",
     True, False),
    ("check-el", cmd_check_residuals, "Euler-Lagrange residuals of the config trajectory",
     True, True),
    ("check-dbr", cmd_check_residuals, "DuBois-Reymond residuals of the config trajectory",
     True, True),
    ("check-hyp", cmd_check_hyp, "auxiliary hypothesis profiles", True, True),
    ("invariance", cmd_invariance, "invariance defect of the config group", True, True),
    ("noether", cmd_noether, "full conserved-quantity check with premises", True, True),
    ("solve", cmd_solve, "extremize z(b) by direct transcription", True, False),
    ("paper-example", cmd_paper_example,
     "run the bundled delayed reference problem end to end", False, True),
)


def build_parser(command=None) -> argparse.ArgumentParser:
    """The herglotz argument parser. Given a command name it registers that
    command's subparser only, under the usage line of the full parser, which
    parses that command's arguments alike and prints the same usage, help and
    errors."""
    parser = argparse.ArgumentParser(
        prog="herglotz",
        description="Delayed Herglotz variational problems: integrate the "
                    "functional, verify optimality conditions, monitor "
                    "conserved quantities, solve by direct transcription.",
        epilog=f"Config schema: {schema_path()}",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
    else:
        sub = parser.add_subparsers(
            dest="command", required=True,
            metavar="{" + ",".join(spec[0] for spec in _COMMANDS) + "}")
    for name, fn, help_text, config, tol in _COMMANDS:
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_text)
        if config:
            p.add_argument("config", help="problem config JSON path, or a bundle name "
                                          f"({', '.join(BUNDLE_NAMES)})")
        p.add_argument("--out", default="out", help="report directory (default ./out)")
        p.add_argument("--n", type=int, default=None, help="override the grid resolution")
        if tol:
            p.add_argument("--tol", type=float, default=None, help="override check tolerances")
        p.set_defaults(handler=fn)
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """The command line parsed; when it starts with a command name only that
    command's subparser is built."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and any(argv[0] == spec[0] for spec in _COMMANDS) else None
    return build_parser(command).parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return args.handler(args)
    except ExpressionSyntaxError as e:
        print(f"herglotz: expression syntax error: {e}", file=sys.stderr)
        return 2
    except (DomainError, NonFinite) as e:
        print(f"herglotz: numerical failure: {e}", file=sys.stderr)
        return 3
    except HerglotzError as e:
        print(f"herglotz: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"herglotz: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
