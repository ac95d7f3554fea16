"""One pass over a workload's case list, in a fresh interpreter.

run.py starts this script once per pass, so no in-process cache of
coverdepth survives from one pass to the next, as for a user who calls the
CLI. It imports coverdepth from the checkout's src/, writes the workload's
input files, then calls ``coverdepth.cli.main(argv)`` for every case with
stdout and stderr captured. It prints one JSON line: the wall clock time
at which the first case was ready, the pass time, the peak resident memory
and each case's exit code and stdout. With --spans it traces the pass (see
tracer.py) and writes the spans to that file after the pass.

    python3 bench/passrun.py --workload expect-mix --seed 1 --inputs DIR [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_coverdepth() -> None:
    """Import coverdepth from this checkout's src/, never from elsewhere."""
    if not (SRC / "coverdepth" / "__init__.py").is_file():
        raise SystemExit(f"no coverdepth package under {SRC}")
    sys.path.insert(0, str(SRC))
    import coverdepth

    if Path(coverdepth.__file__).resolve().parent != (SRC / "coverdepth").resolve():
        raise SystemExit(f"coverdepth was imported from {coverdepth.__file__}, not {SRC}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True, help="directory for generated input files")
    parser.add_argument("--setup-only", action="store_true", help="stop once the inputs are ready")
    parser.add_argument("--spans", help="trace the pass and write its spans to this file")
    args = parser.parse_args()

    import_coverdepth()
    from coverdepth import cli

    import workloads

    case_list = workloads.cases(args.workload, args.seed)
    inputs = Path(args.inputs)
    inputs.mkdir(parents=True, exist_ok=True)
    argvs = [case.materialize(inputs) for case in case_list]
    ready = time.time()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    start = time.perf_counter()
    for case, argv in zip(case_list, argvs):
        if tracer is not None:
            tracer.start_case(case.id)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception as exc:  # a traceback is a wrong result, not a harness failure
                rc = f"raised {type(exc).__name__}: {exc}"
        results.append({
            "id": case.id,
            "exit": rc,
            "stdout": out.getvalue(),
            "stderr": err.getvalue()[-400:],
            "seconds": time.perf_counter() - t0,
        })
    pass_s = time.perf_counter() - start
    doc = {
        "ready": ready,
        "pass_s": pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cases": results,
    }
    if tracer is not None:
        doc["trace"] = tracer.summary()
        tracer.write_spans(args.spans)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
