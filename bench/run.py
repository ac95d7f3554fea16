"""The coverdepth benchmark: one measured run of one workload.

    python3 bench/run.py --workload expect-mix --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is the package under src/.
A run computes the reference values of its cases first, outside any timed
pass. Then it starts fresh interpreters (bench/passrun.py), each making one
pass over the case list through ``coverdepth.cli.main``, for --seconds
seconds: a pass starts only if it is expected to end within them. All
load comes from this one chain of processes; the only parallel case uses
--jobs 2.

With --trace 0 the run reports the end-to-end metrics, as medians over its
passes: setup_s (interpreter start until the first case is ready: import
coverdepth and generate the inputs; untraced runs also start a few
interpreters that stop there), pass_s (one pass over the case list) and
peak_rss_mb (peak resident memory of the pass process). With --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics of
tracer.py, with the tracing overhead as trace.overhead_s.

Every case's exit code and stdout is checked (see workloads.check_case);
fail_ratio, the wrong results over the results attempted, is printed with
the metrics and is the failed/attempted pair of the last line. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Machine facts, per-pass data and failures go to .bench_out/ as well.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

import tracer  # noqa: E402  (bench/ is sys.path[0] when run as a script)
import workloads  # noqa: E402
from passrun import import_coverdepth  # noqa: E402

END_TO_END = ("setup_s", "pass_s", "peak_rss_mb")
SETUP_PROBES = 3
RUN_LIMIT_S = 150.0  # never start a pass that would end after this


class HarnessError(RuntimeError):
    """The run could not produce a result (e.g. a pass crashed or hung)."""


def unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def machine_facts(seed: int) -> dict:
    import numpy

    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                             capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "coverdepth").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "loadavg_at_start": list(os.getloadavg()),
    }


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.inputs = OUT / "inputs" / f"{workload}-seed{seed}"
        self.started = time.monotonic()

    def spawn(self, *extra: str) -> dict:
        """Run passrun.py once; its JSON with setup_s and wall_s added."""
        timeout = RUN_LIMIT_S + 15 - (time.monotonic() - self.started)
        cmd = [sys.executable, str(BENCH / "passrun.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--inputs", str(self.inputs), *extra]
        t_spawn = time.time()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            raise HarnessError(f"pass did not end within {timeout:.0f} s") from None
        finally:
            # the pass and any worker it left behind share one process group
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if proc.returncode != 0 or not out.strip():
            raise HarnessError(f"pass exited with {proc.returncode}: {err.strip()[-2000:]}")
        doc = json.loads(out.strip().splitlines()[-1])
        doc["setup_s"] = doc["ready"] - t_spawn
        doc["wall_s"] = time.time() - t_spawn
        return doc

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def describe(name: str, values: List[float]) -> str:
    """The median with its quartiles and sample count."""
    q1, q3 = quantiles(values, n=4)[::2] if len(values) > 1 else values * 2
    return (f"{name:<12} {median(values):.6g} {unit(name)}  "
            f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    import_coverdepth()
    facts = machine_facts(seed)
    print("machine " + json.dumps(facts))
    case_list = workloads.cases(workload, seed)
    expected = workloads.load_expected(workload)
    unchecked = [c.id for c in case_list if not workloads.has_check(c, expected)]
    if unchecked:
        raise HarnessError(f"no check applies to {unchecked} at seed {seed}")
    print(f"workload {workload} seed {seed} cases {len(case_list)} trace {int(trace)}")

    t0 = time.perf_counter()
    refs = workloads.references(case_list)
    print(f"references computed in {time.perf_counter() - t0:.3f} s, outside the timed passes")

    runner = Runner(workload, seed)
    runner.inputs.mkdir(parents=True, exist_ok=True)
    probes = [runner.spawn("--setup-only") for _ in range(0 if trace else SETUP_PROBES)]
    spans_file = OUT / f"spans-{workload}-seed{seed}.json"
    passes: List[dict] = []
    traced: List[dict] = []
    measure_start = runner.elapsed()
    while True:
        # A pass starts only if, as long as the slowest of its kind, it ends in time.
        want_traced = trace and len(traced) < len(passes)
        pool = traced if want_traced else passes
        estimate = max((p["wall_s"] for p in pool), default=0.0)
        if not pool and want_traced:
            estimate = 2 * max(p["wall_s"] for p in passes)
        done = bool(passes) and (not trace or bool(traced))
        if done and runner.elapsed() - measure_start + estimate > seconds:
            break
        if runner.elapsed() + estimate > RUN_LIMIT_S:
            if done:
                break
            raise HarnessError("the passes do not fit in the run's time limit")
        doc = runner.spawn("--spans", str(spans_file)) if want_traced else runner.spawn()
        pool.append(doc)
        kind = "traced" if want_traced else "pass"
        print(f"{kind} {len(pool)}: {doc['pass_s']:.3f} s, setup {doc['setup_s']:.3f} s, "
              f"peak rss {doc['peak_rss_mb']:.1f} MB")

    failures = []
    attempted = 0
    for kind, pool in (("pass", passes), ("traced", traced)):
        for i, doc in enumerate(pool, 1):
            outputs: Dict[str, str] = {}
            for case, result in zip(case_list, doc["cases"]):
                attempted += 1
                why = workloads.check_case(case, result["exit"], result["stdout"],
                                           expected.get(case.id), refs.get(case.id), outputs)
                outputs[case.id] = result["stdout"]
                if why is not None:
                    failures.append({"pass": f"{kind} {i}", "case": case.id, "why": why,
                                     "stderr": result["stderr"]})
    for f in failures[:10]:
        print(f"FAIL {f['pass']} {f['case']}: {f['why']} {f['stderr'].strip()[-200:]}")

    print("per-case median seconds (untraced passes):")
    for j, case in enumerate(case_list):
        secs = [p["cases"][j]["seconds"] for p in passes]
        print(f"  {case.id:<36} {median(secs):9.4f}")
    print(f"fail_ratio   {len(failures) / attempted:.6g} ratio  ({len(failures)}/{attempted})")
    walls = [p["pass_s"] for p in passes]
    if not trace:
        series = {
            "setup_s": [p["setup_s"] for p in probes + passes],
            "pass_s": walls,
            "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        }
        for name in END_TO_END:
            print(describe(name, series[name]))
        metrics = {name: median(series[name]) for name in END_TO_END}
    else:
        print(describe("pass_s", walls) + "  untraced")
        print(describe("pass_s", [p["pass_s"] for p in traced]) + "  traced")
        metrics = layer_metrics(traced)
        metrics["trace.overhead_s"] = metrics["trace.pass_s"] - median(walls)
        print_layers(traced[-1]["trace"])
        for name, value in metrics.items():
            print(f"  {name:<30} {value:.6g} {unit(name)}")
        print("note: work inside --jobs 2 workers is not traced; it shows only as "
              "search.child_cpu_s and coverage.mc_child_cpu_s")

    record = {
        "workload": workload, "machine": facts, "seconds": seconds, "trace": trace,
        "metrics": metrics, "fail_ratio": len(failures) / attempted, "failures": failures,
        "setup_probes": probes,
        "passes": [{k: v for k, v in p.items() if k not in ("cases", "trace")} for p in passes],
        "traced": [{"pass_s": p["pass_s"], "trace": p["trace"]} for p in traced],
    }
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


def layer_metrics(traced: List[dict]) -> Dict[str, float]:
    """Counts from the first traced pass (they repeat exactly); medians of the rest."""
    first = traced[0]["trace"]["metrics"]
    for doc in traced[1:]:
        for name in tracer.COUNT_METRICS:
            if doc["trace"]["metrics"][name] != first[name]:
                print(f"warning: {name} differs between traced passes")
    metrics = {}
    for name in tracer.METRICS:
        if name in tracer.COUNT_METRICS:
            metrics[name] = first[name]
        else:
            metrics[name] = median([doc["trace"]["metrics"][name] for doc in traced])
    metrics["trace.pass_s"] = median([doc["pass_s"] for doc in traced])
    return metrics


def print_layers(summary: dict) -> None:
    print(f"per-layer table of the last traced pass ({summary['spans']} spans):")
    print(f"  {'layer':<12} {'calls':>9} {'self_s':>10}")
    for layer, row in summary["layers"].items():
        print(f"  {layer:<12} {row['calls']:>9} {row['self_s']:>10.4f}")
    print(f"  gf scalar ops (counted, not spanned): {summary['scalar_ops']}")
    print(f"  {'function':<44} {'calls':>9} {'busy_s':>10} {'self_s':>10}")
    for name, row in summary["functions"].items():
        print(f"  {name:<44} {row['calls']:>9} {row['busy_s']:>10.4f} {row['self_s']:>10.4f}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
