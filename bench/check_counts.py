"""Self-test of the benchmark: the traced counts repeat exactly.

Makes the traced run (run.py --trace 1) twice per workload at one seed and
exits non-zero unless every count metric (tracer.COUNT_METRICS: gf scalar
ops, matrix calls, profile calls, exact calls, search candidates and score
calls) is equal in both runs and both runs' outputs pass their checks.
Later changes may name these counts as count claims, so they must repeat.
Takes about three minutes on a 2-core machine.

    python3 bench/check_counts.py [--seed N] [workload ...]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run exited {proc.returncode}: {proc.stderr[-2000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if not doc["correct"]:
        raise SystemExit(f"{workload}: {doc['failed']} of {doc['attempted']} results were wrong")
    return {name: doc["metrics"][name]["value"] for name in tracer.COUNT_METRICS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("workloads", nargs="*", default=list(workloads.WORKLOADS))
    args = parser.parse_args()
    ok = True
    for workload in args.workloads:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        for name in tracer.COUNT_METRICS:
            same = first[name] == second[name]
            ok &= same
            print(f"{'ok  ' if same else 'FAIL'} {workload:<15} {name:<28} {first[name]} {second[name]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
