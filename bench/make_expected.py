"""Write bench/expected/<workload>.json: the stored outputs at the default seed.

Runs one untraced pass of each named workload (all by default) at
workloads.DEFAULT_SEED and stores every case's input key, exit code and
stdout. Nothing is stored unless each result first passes its reference
checks; the fixed random generator, whose reference the timed runs skip for
cost, is held here to both exact routes. Rerun this only in a change that
means to alter the program's output.

    python3 bench/make_expected.py [workload ...]
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def make(workload: str) -> None:
    run.import_coverdepth()
    from coverdepth import codes, coverage
    from coverdepth.matrix import parse_matrix

    seed = workloads.DEFAULT_SEED
    case_list = workloads.cases(workload, seed)
    refs = workloads.references(case_list)
    for case in case_list:
        if case.gen is not None and case.ref is None:
            code = codes.linear_code(parse_matrix(case.gen))
            primal = coverage.expectation_exact(code)
            dual = coverage.expectation_exact_dual(code)
            refs[case.id] = primal if primal == dual else f"routes disagree: {primal} != {dual}"
    runner = run.Runner(workload, seed)
    runner.inputs.mkdir(parents=True, exist_ok=True)
    doc = runner.spawn()
    stored, outputs = {}, {}
    for case, result in zip(case_list, doc["cases"]):
        why = workloads.check_case(case, result["exit"], result["stdout"], None,
                                   refs.get(case.id), outputs)
        if why is not None:
            raise SystemExit(f"{workload} {case.id}: {why} {result['stderr']}")
        outputs[case.id] = result["stdout"]
        stored[case.id] = {"key": case.key(), "exit": result["exit"], "stdout": result["stdout"]}
    path = workloads.expected_path(workload)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"seed": seed, "cases": stored}, indent=1) + "\n")
    print(f"wrote {path} ({len(stored)} cases, pass {doc['pass_s']:.2f} s)")


if __name__ == "__main__":
    run.OUT.mkdir(exist_ok=True)
    for name in sys.argv[1:] or workloads.WORKLOADS:
        make(name)
