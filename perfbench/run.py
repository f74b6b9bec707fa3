"""Benchmark of the herglotz package; see perfbench/README.md.

    python3 perfbench/run.py --workload verify|solve|sensitivity|all \
        --seed N --seconds T --trace 0|1

Run from the repository root. Each workload runs in fresh worker processes
(perfbench/worker.py) against the package in ``src/``: first a few set-up
probes, then one worker that measures passes of the workload's operation
list for about ``--seconds``. With ``--trace 1`` an untraced worker and a
traced worker share the time, and the per-layer metrics come from the
traced one. Every time metric is scaled to the host's reference speed
(calibrate.py); the raw times are printed and kept in the run record. The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("verify", "solve", "sensitivity")
SETUP_PROBES = 4
# one client in one process on a shared host: numeric libraries stay single-threaded
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_gmean_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def _spawn(workload: str, seed: int, seconds: float, deadline: float, *,
           setup_only=False, trace=False, corrupt=False) -> dict:
    OUT.mkdir(exist_ok=True)
    result = OUT / f"worker-{os.getpid()}.json"
    result.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "worker.py"), workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--result", str(result)]
    if setup_only:
        argv.append("--setup-only")
    if trace:
        argv += ["--trace-out", str(OUT / f"trace-{workload}.npz")]
    if corrupt:
        argv.append("--corrupt-reference")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the worker could start")
    argv += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(argv, env=_worker_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr[-4000:])
    data = json.loads(result.read_text())
    result.unlink()
    return data


def tail_latency(latencies):
    """Highest of p99.9/p99/p95/p90 with at least 10 samples beyond it, as
    (percentile, value, samples); None when a run has too few operations."""
    xs = sorted(latencies)
    for pct in (99.9, 99.0, 95.0, 90.0):
        rank = math.ceil(pct / 100.0 * len(xs))
        if rank >= 1 and len(xs) - rank >= 10:
            return pct, xs[rank - 1], len(xs)
    return None


def _per_label_median_ms(ops, key: str = "latency_s") -> dict:
    """Median latency of each distinct operation of the workload, in ms."""
    by_label: dict = {}
    for op in ops:
        by_label.setdefault(op["label"], []).append(op[key])
    return {k: 1000.0 * statistics.median(v) for k, v in sorted(by_label.items())}


def _src_lines() -> int:
    return sum(len(f.read_text().splitlines()) for f in (SRC / "herglotz").rglob("*.py"))


def _environment(worker: dict) -> dict:
    return {"nproc": _nproc(), **worker["versions"], "blas_threads": BLAS_THREADS,
            "machine": platform.machine(), "src_lines": _src_lines(),
            "host_speed": round(calibrate.REFERENCE_S / worker["reading_s"], 3)}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 corrupt: bool = False) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    if not trace:
        probes = [_spawn(workload, seed, seconds, deadline, setup_only=True, corrupt=corrupt)
                  for _ in range(SETUP_PROBES)]
        main = _spawn(workload, seed, seconds, deadline, corrupt=corrupt)
        probes.append(main)
        ops = main["ops"]
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "wall_s": statistics.median(main["passes"]),
            "op_gmean_ms": statistics.geometric_mean(_per_label_median_ms(ops).values()),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        raw = {
            "setup_s": statistics.median(p["raw_setup_s"] for p in probes),
            "wall_s": statistics.median(main["raw_passes"]),
            "op_gmean_ms": statistics.geometric_mean(
                _per_label_median_ms(ops, "raw_latency_s").values()),
        }
        units = END_TO_END_UNITS
        passes = {"untraced": len(main["passes"])}
    else:
        from tracer import METRIC_UNITS
        plain = _spawn(workload, seed, seconds / 2, deadline, corrupt=corrupt)
        main = _spawn(workload, seed, seconds / 2, deadline, trace=True, corrupt=corrupt)
        ops = plain["ops"] + main["ops"]
        metrics = dict(main["layers"])
        metrics["trace.overhead_s"] = (statistics.median(main["passes"])
                                       - statistics.median(plain["passes"]))
        raw = {"trace.overhead_s": (statistics.median(main["raw_passes"])
                                    - statistics.median(plain["raw_passes"]))}
        units = dict(METRIC_UNITS, **{"trace.overhead_s": "s"})
        passes = {"untraced": len(plain["passes"]), "traced": len(main["passes"]),
                  "spans": main["spans"]}
    failures = [op for op in ops if op["failure"]]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": not any(op["wrong"] for op in ops),
        "attempted": len(ops), "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "raw": raw,
        "op_p50_ms": 1000.0 * statistics.median(op["latency_s"] for op in ops),
        "tail": tail_latency([op["latency_s"] for op in ops]),
        "op_median_ms": _per_label_median_ms(ops),
        "passes": passes,
        "failures": sorted({f"{op['label']}: {op['failure']}" for op in failures}),
        "environment": _environment(main),
    }


def _print_summary(r: dict) -> None:
    print(f"workload {r['workload']}  seed {r['seed']}  trace {r['trace']}  "
          f"passes {r['passes']}  attempted {r['attempted']}  failed {r['failed']}  "
          f"correct {str(r['correct']).lower()}")
    for name, m in r["metrics"].items():
        raw = r["raw"].get(name)
        note = "" if raw is None else f"  (as measured: {raw:.6g})"
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  op_p50_ms                        {r['op_p50_ms']:.6g} ms (all operations)")
    if r["tail"] is None:
        print("  op_tail_ms                       omitted (fewer than 10 operations beyond p90)")
    else:
        pct, value, n = r["tail"]
        print(f"  op_tail_ms                       {1000.0 * value:.6g} ms "
              f"(p{pct:g} of {n} operations)")
    for line in r["failures"]:
        print(f"  failed: {line}")
    env = " ".join(f"{k}={v}" for k, v in r["environment"].items())
    print(f"  environment: {env}")


def _result_line(r: dict) -> dict:
    return {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt-reference", action="store_true",
                   help="shift every reference value (harness self-check)")
    args = p.parse_args(argv)
    if not (SRC / "herglotz" / "__init__.py").is_file():
        print(f"run.py: no herglotz package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            r = run_workload(name, args.seed, args.seconds, bool(args.trace),
                             args.corrupt_reference)
            runs = OUT / "runs"
            runs.mkdir(parents=True, exist_ok=True)
            (runs / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps(r, indent=1) + "\n")
            _print_summary(r)
            results.append(r)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(_result_line(results[0])))
    else:
        print(json.dumps({r["workload"]: _result_line(r) for r in results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
