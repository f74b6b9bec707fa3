"""Harness self-check for the herglotz benchmark.

    python3 perfbench/selfcheck.py

1. Every workload, run with ``--corrupt-reference``, must exit 0 and report
   failed operations and ``correct: false``: a wrong reference surfaces as
   failed operations, not as a crash or a pass.
2. A traced run must emit every per-layer metric listed in BENCHMARK.json,
   and an untraced run every end-to-end metric.

Takes about a minute and a half (one solve pass dominates).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--seed", "7", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"run.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        r = _run("--workload", w["name"], "--seconds", "1", "--corrupt-reference")
        ok = r["failed"] >= 1 and r["correct"] is False and r["attempted"] >= r["failed"]
        print(f"corrupted reference, {w['name']}: attempted {r['attempted']} "
              f"failed {r['failed']} correct {r['correct']} -> {'ok' if ok else 'NOT DETECTED'}")
        if not ok:
            problems.append(f"corrupted reference not detected on {w['name']}")
    name = spec["workloads"][0]["name"]
    for trace, key in (("1", "per_layer"), ("0", "end_to_end")):
        r = _run("--workload", name, "--seconds", "4", "--trace", trace)
        missing = [m["name"] for m in spec[key] if m["name"] not in r["metrics"]]
        print(f"--trace {trace} on {name}: {len(r['metrics'])} metrics, missing {missing}")
        if missing:
            problems.append(f"--trace {trace} run misses {missing}")
    for p in problems:
        print(f"FAIL: {p}")
    print("selfcheck:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
