"""Case lists of the three benchmark workloads, their seeded inputs and checks.

A case is one CLI call: an argv for ``coverdepth.cli.main`` plus what its
output is held to. This module builds the case list of a workload from the
benchmark seed; it imports nothing from coverdepth, so the program under
test never generates or validates its own inputs. Reference values are
computed by ``references`` (outside the timed passes) and each result is
judged by ``check_case``.

Why each workload exists, and which layer metric should move which
end-to-end metric, is written down in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

WORKLOADS = ("expect-mix", "search-small", "simulate-lanes")
DEFAULT_SEED = 1

# A Monte Carlo mean passes when it lies within Z_BOUND standard errors of
# the exact value: a false alarm has probability about 6e-7 per check.
Z_BOUND = 5.0

GEN = "@GEN"  # argv placeholder for the path of the case's generator file


@dataclass(frozen=True)
class Case:
    """One CLI call and what its result is held to.

    ref names the exact expectation the printed value must equal:
    ("simplex", q, k), ("hamming", q, r), ("mds", n, k), or ("routes",),
    which evaluates the generator in ``gen`` by both exact routes. mc marks
    a simulate call whose mean is held to ref within Z_BOUND standard
    errors. same_as names an earlier case whose stdout must be identical.
    """

    id: str
    argv: Tuple[str, ...]
    exit: int = 0
    gen: Optional[str] = None
    ref: Optional[tuple] = None
    mc: bool = False
    same_as: Optional[str] = None

    def key(self) -> str:
        """The inputs as one string; equal keys must give equal output bytes."""
        argv = list(self.argv)
        if self.gen is not None:
            digest = hashlib.sha256(self.gen.encode()).hexdigest()
            argv = [f"file:sha256:{digest}" if a == GEN else a for a in argv]
        return json.dumps(argv)

    def materialize(self, inputs: Path) -> List[str]:
        """Write the generator file, if any, and return the argv to run."""
        if self.gen is None:
            return list(self.argv)
        path = inputs / f"{self.id.replace('/', '_')}.txt"
        path.write_text(self.gen)
        return [f"file:{path}" if a == GEN else a for a in self.argv]


def random_generator(rng: random.Random, q: int, k: int, n: int, zeros: int, repeats: int) -> str:
    """A k x n generator over GF(q) in the CLI's "k n q" text format.

    It holds k scaled unit columns (so it has full rank without any field
    arithmetic), random nonzero columns, `repeats` copies of earlier
    columns and `zeros` zero columns, in random order. Entries use the
    integer element encoding, so any value in [0, q) is valid.
    """
    cols = []
    for i in range(k):
        col = [0] * k
        col[i] = rng.randrange(1, q)
        cols.append(col)
    while len(cols) < n - zeros - repeats:
        col = [rng.randrange(q) for _ in range(k)]
        if any(col):
            cols.append(col)
    cols += [list(rng.choice(cols)) for _ in range(repeats)]
    cols += [[0] * k for _ in range(zeros)]
    rng.shuffle(cols)
    rows = [" ".join(str(col[i]) for col in cols) for i in range(k)]
    return f"{k} {n} {q}\n" + "\n".join(rows) + "\n"


# The one large random generator is fixed rather than seeded: its exact
# walk takes about a third of an expect-mix pass, and its cost moves by up
# to 30% from one random [20,6] matroid to the next, which would swamp the
# run-to-run spread. The small seeded generators cost too little to matter.
_FIXED_20_6 = random_generator(random.Random("coverdepth-bench/binary-20-6"), 2, 6, 20, 2, 3)

# (q, k, n) of the seeded random generators, each with one zero column and
# two repeated columns.
_RANDOM_SHAPES = ((2, 4, 12), (2, 5, 14), (3, 4, 12), (4, 3, 12), (5, 3, 12), (5, 4, 13))


def _expect_mix(seed: int) -> List[Case]:
    cases = []
    for q, k in ((2, 3), (2, 4), (3, 3), (4, 3)):
        cases.append(Case(f"expect/simplex-q{q}-k{k}",
                          ("expect", "--field", str(q), "--code", "simplex", "--k", str(k)),
                          ref=("simplex", q, k)))
    for q, r in ((2, 4), (2, 5), (3, 3)):
        cases.append(Case(f"expect/hamming-q{q}-r{r}",
                          ("expect", "--field", str(q), "--code", "hamming", "--r", str(r)),
                          ref=("hamming", q, r)))
    cases.append(Case("expect/rs-q16-16-8",
                      ("expect", "--field", "16", "--code", "rs", "--n", "16", "--k", "8"),
                      ref=("mds", 16, 8)))
    cases.append(Case("expect/rs-q9-10-5-json",
                      ("expect", "--field", "9", "--code", "rs", "--n", "10", "--k", "5",
                       "--format", "json"),
                      ref=("mds", 10, 5)))
    cases.append(Case("expect/dual-of-hamming-q3-r3",
                      ("expect", "--field", "3", "--code", "dual-of:hamming", "--r", "3"),
                      ref=("simplex", 3, 3)))
    cases.append(Case("expect/rs-q8-9-6-method-dual",
                      ("expect", "--field", "8", "--code", "rs", "--n", "9", "--k", "6",
                       "--method", "dual"),
                      ref=("mds", 9, 6)))
    rng = random.Random(f"coverdepth-bench/expect-mix/{seed}")
    for q, k, n in _RANDOM_SHAPES:
        cases.append(Case(f"expect/random-q{q}-{n}-{k}", ("expect", "--code", GEN),
                          gen=random_generator(rng, q, k, n, 1, 2), ref=("routes",)))
    cases.append(Case("expect/fixed-q2-20-6", ("expect", "--code", GEN), gen=_FIXED_20_6))
    cases.append(Case("bound/31-26", ("bound", "--n", "31", "--k", "26")))
    cases.append(Case("figure1", ("figure1",)))
    cases.append(Case("verify", ("verify",)))
    cases.append(Case("asymptotics/simplex-k3",
                      ("asymptotics", "--family", "simplex", "--k", "3", "--q-grid", "2..16")))
    cases.append(Case("error/bad-field", ("expect", "--field", "6", "--code", "simplex", "--k", "3"),
                      exit=1))
    return cases


def _search_small(seed: int) -> List[Case]:
    def search(q, k, n, *extra, exit=0):
        tag = "".join(f"-{x.lstrip('-')}" for x in extra)
        return Case(f"search/q{q}-k{k}-n{n}{tag}",
                    ("search", "--field", str(q), "--k", str(k), "--n", str(n)) + extra, exit=exit)

    cases = [
        search(2, 3, 7),
        search(2, 3, 8),
        search(3, 3, 5),
        search(2, 4, 5),
        search(4, 2, 6, "--format", "plain"),
        search(3, 2, 4, "--mode", "full"),
        search(2, 3, 8, "--jobs", "2"),
        search(2, 4, 12, exit=2),
    ]
    # The seed only reorders the calls; every call is the same at every seed.
    random.Random(f"coverdepth-bench/search-small/{seed}").shuffle(cases)
    return cases


def _simulate_lanes(seed: int) -> List[Case]:
    def simulate(tag, ref, *spec, trials, jobs=1, same_as=None):
        argv = ("simulate",) + spec + ("--trials", str(trials), "--seed", str(seed))
        if jobs != 1:
            argv += ("--jobs", str(jobs))
        return Case(f"simulate/{tag}", argv, ref=ref, mc=True, same_as=same_as)

    simplex_2_3 = ("--field", "2", "--code", "simplex", "--k", "3")
    return [
        simulate("simplex-q2-k3", ("simplex", 2, 3), *simplex_2_3, trials=1_000_000),
        simulate("simplex-q2-k3-jobs2", ("simplex", 2, 3), *simplex_2_3, trials=1_000_000,
                 jobs=2, same_as="simulate/simplex-q2-k3"),
        simulate("hamming-q2-r4", ("hamming", 2, 4),
                 "--field", "2", "--code", "hamming", "--r", "4", trials=200_000),
        simulate("rs-q16-16-8", ("mds", 16, 8),
                 "--field", "16", "--code", "rs", "--n", "16", "--k", "8", trials=200_000),
        simulate("simplex-q3-k4", ("simplex", 3, 4),
                 "--field", "3", "--code", "simplex", "--k", "4", trials=200_000),
        simulate("rs-q1024-12-4", ("mds", 12, 4),
                 "--field", "1024", "--code", "rs", "--n", "12", "--k", "4", trials=2_000),
        Case("error/rs-missing-n", ("simulate", "--field", "2", "--code", "rs", "--k", "3"),
             exit=1),
    ]


def cases(workload: str, seed: int) -> List[Case]:
    """The case list of a workload; the same seed gives the same list."""
    build = {"expect-mix": _expect_mix, "search-small": _search_small,
             "simulate-lanes": _simulate_lanes}
    if workload not in build:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return build[workload](seed)


def expected_path(workload: str) -> Path:
    return Path(__file__).resolve().parent / "expected" / f"{workload}.json"


def load_expected(workload: str) -> Dict[str, dict]:
    """Stored exit codes and stdout of every case at DEFAULT_SEED, by case id."""
    return json.loads(expected_path(workload).read_text())["cases"]


def references(case_list: List[Case]) -> Dict[str, object]:
    """Exact reference values by case id: a Fraction, or an error string.

    Uses coverdepth's closed forms, its MDS bound and, for random
    generators, both exact routes, which must agree. Call it outside the
    timed passes; coverdepth must already be importable.
    """
    from coverdepth import codes, coverage
    from coverdepth.matrix import parse_matrix

    out: Dict[str, object] = {}
    for case in case_list:
        if case.ref is None:
            continue
        kind, *args = case.ref
        if kind == "simplex":
            out[case.id] = coverage.expectation_simplex(*args)
        elif kind == "hamming":
            out[case.id] = coverage.expectation_hamming(*args)
        elif kind == "mds":
            out[case.id] = coverage.mds_bound(*args)
        elif kind == "routes":
            code = codes.linear_code(parse_matrix(case.gen))
            primal = coverage.expectation_exact(code)
            dual = coverage.expectation_exact_dual(code)
            out[case.id] = primal if primal == dual else f"routes disagree: {primal} != {dual}"
        else:
            raise ValueError(f"unknown reference kind {kind!r}")
    return out


def _printed_value(stdout: str) -> Fraction:
    if stdout.startswith("{"):
        return Fraction(json.loads(stdout)["value_rational"])
    first = stdout.splitlines()[0].split()
    if first[0] != "value":
        raise ValueError(f"no value line in {first!r}")
    return Fraction(first[1])


def check_case(case: Case, rc, stdout: str, expected: Optional[dict], reference,
               outputs: Dict[str, str]) -> Optional[str]:
    """None when the result is right, else why it is wrong.

    expected is the stored entry for this case id; it applies only when its
    key matches, i.e. when the inputs are the stored ones. outputs holds the
    stdout of the cases run before this one in the same pass.
    """
    if rc != case.exit:
        return f"exit {rc}, want {case.exit}"
    if case.exit != 0:
        return f"stdout not empty on exit {rc}" if stdout else None
    if expected is not None and expected["key"] == case.key():
        if (rc, stdout) != (expected["exit"], expected["stdout"]):
            return "stdout differs from the stored output"
    if case.same_as is not None and stdout != outputs.get(case.same_as):
        return f"stdout differs from {case.same_as}"
    if isinstance(reference, str):
        return reference
    if reference is None:
        return None
    try:
        if case.mc:
            doc = json.loads(stdout)
            mean, err = doc["mean"], doc["std_error"]
            if not err > 0 or abs(mean - float(reference)) > Z_BOUND * err:
                return f"mean {mean} +- {err} is not within {Z_BOUND} errors of {reference}"
            return None
        value = _printed_value(stdout)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None if value == reference else f"value {value}, want {reference}"


def has_check(case: Case, expected: Dict[str, dict]) -> bool:
    """Whether some check besides the exit code applies to the case."""
    stored = expected.get(case.id)
    return (case.exit != 0 or case.ref is not None or case.same_as is not None
            or (stored is not None and stored["key"] == case.key()))
