"""One workload in one fresh process: set-up, timed passes, result file.

Started by run.py; the parent passes the CLOCK_MONOTONIC reading it took just
before spawning, so ``setup_s`` spans interpreter start, ``import herglotz``
and the workload's set-up. Process-global state of the package (the solver's
basis cache) therefore starts cold in every run, as it does for a CLI user.

A pass is one execution of the workload's fixed operation list in a closed
loop: each operation starts when the previous one and its correctness gate
have finished. Passes repeat while the next one is expected to end within
``--seconds``; there is always at least one.

Every time is recorded twice: unscaled, and scaled to the host's reference
speed (calibrate.py). The reference kernel is read right after set-up and
every 0.1 s of the timed loop; the time of readings that fall inside an
operation is taken out of its latency.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench" / "tmp"


def _run_passes(workload, seconds: float, workdir: Path, tracer) -> dict:
    from workloads import Failure

    spans, ops = [], []
    meter = calibrate.Meter()
    begin = time.perf_counter()
    last_pass = 0.0
    op_id = n_passes = 0
    meter.start()
    try:
        while not n_passes or time.perf_counter() - begin + last_pass <= seconds:
            pass_start = time.perf_counter()
            for op in workload.ops():
                out = workdir / f"op{op_id}"
                if tracer is not None:
                    tracer.op = op_id
                paused = meter.paused_s
                t0 = time.perf_counter()
                try:
                    value = op.run(out)
                    error = None
                except Exception:  # a crashing operation is a failed operation
                    error = traceback.format_exc()
                t1 = time.perf_counter()
                latency = t1 - t0 - (meter.paused_s - paused)
                if tracer is not None:
                    tracer.op = None
                if error is None:
                    try:
                        failure = op.check(value, out)
                    except Exception:  # e.g. a report file the command did not write
                        failure = Failure("gate raised " + traceback.format_exc(limit=1))
                else:
                    failure = Failure("raised " + error.strip().splitlines()[-1])
                    print(error, file=sys.stderr)
                shutil.rmtree(out, ignore_errors=True)
                spans.append((n_passes, t0, t1))
                ops.append({"label": op.label, "raw_latency_s": latency,
                            "failure": failure.reason if failure else None,
                            "wrong": bool(failure and failure.wrong)})
                op_id += 1
            n_passes += 1
            last_pass = time.perf_counter() - pass_start
    finally:
        meter.stop()
    return {"ops": ops, **_passes(ops, spans, meter),
            "reading_s": statistics.median(meter.readings)}


def _passes(ops: list, spans: list, meter) -> dict:
    """Scale every operation's latency and sum each pass, scaled and unscaled."""
    n_passes = spans[-1][0] + 1
    passes, raw_passes = [0.0] * n_passes, [0.0] * n_passes
    for op, (pass_no, t0, t1) in zip(ops, spans):
        op["latency_s"] = op["raw_latency_s"] * meter.scale(t0, t1)
        passes[pass_no] += op["latency_s"]
        raw_passes[pass_no] += op["raw_latency_s"]
    return {"passes": passes, "raw_passes": raw_passes}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("workload")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--trace-out", type=Path, default=None)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--corrupt-reference", action="store_true")
    args = p.parse_args(argv)

    import numpy
    import scipy
    import herglotz
    if Path(herglotz.__file__).resolve().parent != SRC / "herglotz":
        print(f"worker: herglotz imported from {herglotz.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS

    tracer = None
    if args.trace_out is not None:
        tracer = Tracer()
        tracer.install()
        tracer.op = -1
    TMP.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, args.corrupt_reference)
        setup = time.monotonic() - args.spawned
        if tracer is not None:
            tracer.op = None
        result = {"raw_setup_s": setup, "setup_s": setup * calibrate.setup_scale()}
        if not args.setup_only:
            result.update(_run_passes(workload, args.seconds, workdir, tracer))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                              "scipy": scipy.__version__}
        if tracer is not None:
            result["layers"] = tracer.metrics(len(result["passes"]))
            result["spans"] = len(tracer.kind)
            tracer.save(args.trace_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
