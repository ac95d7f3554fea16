"""Command-line front end.

Commands: expect, bound, search, simulate, asymptotics, figure1, verify.
Exit codes: 0 success, 1 usage or input error, 2 enumeration budget
exceeded, 3 invariant violation. Exact values are printed as num/den plus
a round-half-even decimal at --digits places; JSON documents have a fixed
key order so identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import List, Optional, Tuple

from . import codes as cd
from .asymptotics import gap_grid, grid_csv, simplex_gap
from .coverage import (
    BudgetExceededError,
    InvariantViolation,
    decimal_str,
    expectation_exact,
    expectation_exact_auto,
    expectation_exact_dual,
    expectation_hamming,
    expectation_monte_carlo,
    expectation_simplex,
    mds_bound,
    simulate_trial,
    _draw_count_array,
    _flat_table,
    _gaussian,
    _rational_str,
)
from .gf import FieldSpec, field_from_order, is_prime_power, parse_field_spec
from .matrix import parse_matrix
from .search import DEFAULT_BUDGET, optimal_coverage, verify_reduction

FIG_K = (3, 4, 5, 6, 7)
FIG_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1.
    def error(self, message):
        raise _UsageError(message)


def _positive(text: str) -> int:
    """argparse type of the count flags: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _num_den_decimal(value: Fraction, digits: int) -> str:
    return f"{_rational_str(value)} ({decimal_str(value, digits)})"


def _need(args: argparse.Namespace, name: str):
    value = getattr(args, name)
    if value is None:
        raise _UsageError(f"--{name} is required for code {args.code!r}")
    return value


def _build_code(args: argparse.Namespace) -> cd.LinearCode:
    spec, duals = args.code, 0
    while spec.startswith("dual-of:"):
        spec, duals = spec[len("dual-of:"):], duals + 1
    if spec.startswith("file:"):
        C = cd.linear_code(parse_matrix(Path(spec[len("file:"):]).read_text()))
    else:
        F = parse_field_spec(_need(args, "field"))
        if spec == "simplex":
            C = cd.simplex_code(F, _need(args, "k"))
        elif spec == "hamming":
            C = cd.hamming_code(F, _need(args, "r"))
        elif spec == "rs":
            C = cd.reed_solomon(F, _need(args, "n"), _need(args, "k"))
        else:
            raise _UsageError(f"unknown code spec {spec!r}")
    for _ in range(duals):
        C = cd.dual(C)
    return C


def _monte_carlo(args: argparse.Namespace, C: cd.LinearCode) -> Tuple[dict, List[str]]:
    """Run the simulation; return its JSON fields and its plain lines."""
    est = expectation_monte_carlo(C, args.trials, args.seed, args.jobs)
    keys = ("trials", "seed", "mean", "std_error", "min_draws", "max_draws")
    fields = {key: getattr(est, key) for key in keys}
    lines = [
        f"mean {est.mean:.6f} +- {est.std_error:.6f}",
        f"trials {est.trials} seed {est.seed} min {est.min_draws} max {est.max_draws}",
    ]
    return fields, lines


def cmd_expect(args: argparse.Namespace) -> str:
    C = _build_code(args)
    bound = mds_bound(C.n, C.k)
    digits = args.digits
    value = gap = None
    fields = {}
    if args.method == "mc":
        fields, lines = _monte_carlo(args, C)
    else:
        if args.method == "exact":
            value = expectation_exact_auto(C)
        elif args.method == "dual":
            value = expectation_exact_dual(C)
        elif args.code == "simplex":
            value = expectation_simplex(C.field.q, C.k)
        elif args.code == "hamming":
            value = expectation_hamming(C.field.q, args.r)
        else:
            raise ValueError("--method formula applies to --code simplex or hamming only")
        gap = value - bound
        lines = [f"value {_num_den_decimal(value, digits)}"]
    lines.append(f"bound {_num_den_decimal(bound, digits)}")
    if gap is not None:
        lines.append(f"gap {_num_den_decimal(gap, digits)}")
    if gap == 0:
        lines.append("meets MDS bound")
    if args.fmt == "json":
        doc = {
            "code": args.code,
            "n": C.n,
            "k": C.k,
            "q": C.field.q,
            "method": args.method,
            "value_rational": None if value is None else _rational_str(value),
            "value_decimal": None if value is None else decimal_str(value, digits),
            **fields,
            "bound_rational": _rational_str(bound),
            "bound_decimal": decimal_str(bound, digits),
            "gap_rational": None if gap is None else _rational_str(gap),
            "meets_mds_bound": None if gap is None else gap == 0,
        }
        return json.dumps(doc, indent=2) + "\n"
    return "\n".join(lines) + "\n"


def cmd_bound(args: argparse.Namespace) -> str:
    value = mds_bound(args.n, args.k)
    if args.fmt == "json":
        doc = {
            "n": args.n,
            "k": args.k,
            "bound_rational": _rational_str(value),
            "bound_decimal": decimal_str(value, args.digits),
        }
        return json.dumps(doc, indent=2) + "\n"
    return _num_den_decimal(value, args.digits) + "\n"


def cmd_search(args: argparse.Namespace) -> str:
    F = parse_field_spec(args.field)
    report = optimal_coverage(
        F, args.k, args.n, mode=args.mode, jobs=args.jobs, budget=args.budget
    )
    if args.fmt == "json":
        return json.dumps(report.to_json_dict(), indent=2) + "\n"
    lines = [
        f"search n={report.n} k={report.k} q={report.q} mode={report.mode}",
        f"examined {report.candidates_examined} admissible {report.candidates_admissible}",
        f"minimum {_num_den_decimal(report.minimum, args.digits)}",
    ]
    for cand in report.optimal_candidates:
        lines.append(f"optimal {list(cand.points)}")
    if report.runner_up is not None:
        lines.append(f"runner_up {_num_den_decimal(report.runner_up, args.digits)}")
    return "\n".join(lines) + "\n"


def cmd_simulate(args: argparse.Namespace) -> str:
    C = _build_code(args)
    fields, lines = _monte_carlo(args, C)
    if args.fmt == "json":
        doc = {"code": args.code, "n": C.n, "k": C.k, "q": C.field.q, **fields}
        return json.dumps(doc, indent=2) + "\n"
    return "\n".join(lines) + "\n"


def _parse_grid(text: str, kind: str) -> List[int]:
    """The values of a grid: lo..hi (q grids keep its prime powers) or a comma list."""
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        values = list(range(int(lo_s), int(hi_s) + 1))
        if kind == "q":
            values = [v for v in values if is_prime_power(v)]
    else:
        values = [int(part) for part in text.split(",") if part.strip()]
        if kind == "q":
            for v in values:
                if not is_prime_power(v):
                    raise _UsageError(f"{v} is not a prime power")
    if not values:
        raise _UsageError(f"empty grid {text!r}")
    return values


def cmd_asymptotics(args: argparse.Namespace) -> str:
    if args.family == "binary-hamming":
        if args.r_grid is None:
            raise _UsageError("family binary-hamming requires --r-grid")
        reports = gap_grid(args.family, _parse_grid(args.r_grid, "r"))
    else:
        if args.q_grid is None:
            raise _UsageError(f"family {args.family} requires --q-grid")
        reports = gap_grid(args.family, _parse_grid(args.q_grid, "q"), k=args.k, r=args.r)
    if args.fmt == "json":
        rows = []
        for rep in reports:
            rows.append({
                "q": rep.q,
                "k_or_r": rep.k_or_r,
                "n": rep.n,
                "exact": _rational_str(rep.exact_expectation),
                "bound": _rational_str(rep.bound),
                "gap": _rational_str(rep.gap),
                "ratio": format(rep.ratio, "f"),
                "predicted_term": (
                    format(rep.predicted_leading_term, "f")
                    if rep.predicted_leading_term is not None
                    else None
                ),
            })
        return json.dumps(rows, indent=2) + "\n"
    return grid_csv(reports, args.digits)


def cmd_figure1(args: argparse.Namespace) -> str:
    digits = max(args.digits, 20)
    lines = ["k,q,simplex_value,bound_value"]
    for k in FIG_K:
        for q in FIG_Q:
            n = _gaussian(k, 1, q)
            lines.append(",".join([
                str(k),
                str(q),
                decimal_str(expectation_simplex(q, k), digits),
                decimal_str(mds_bound(n, k), digits),
            ]))
    return "\n".join(lines) + "\n"


def cmd_verify(args: argparse.Namespace) -> str:
    lines = []

    def check(name, fn):
        try:
            fn()
            lines.append(f"ok {name}")
        except Exception as exc:
            lines.append(f"FAIL {name}: {type(exc).__name__}: {exc}")

    def simplex_routes():
        F = FieldSpec(2)
        C = cd.simplex_code(F, 3)
        want = Fraction(47, 12)
        got = (expectation_simplex(2, 3), expectation_exact(C), expectation_exact_dual(C))
        if got != (want, want, want):
            raise AssertionError(f"expected {want} on all routes, got {got}")

    def hamming_routes():
        F = FieldSpec(2)
        C = cd.hamming_code(F, 3)
        want = Fraction(347, 60)
        got = (expectation_hamming(2, 3), expectation_exact_auto(C))
        if got != (want, want):
            raise AssertionError(f"expected {want}, got {got}")

    def mds_equality():
        F = FieldSpec(5)
        C = cd.reed_solomon(F, 5, 2)
        if expectation_exact_auto(C) != mds_bound(5, 2):
            raise AssertionError("RS [5,2] missed the bound")

    def duality_identity():
        F = FieldSpec(2)
        C = cd.hamming_code(F, 3)
        D = cd.dual(C)
        for s in range(C.n + 1):
            for l in range(C.k + 1):
                lhs = cd.shortened_dim_count(C, l, s).value
                rhs = cd.shortened_dim_count(D, l + s - C.k, C.n - s).value
                if lhs != rhs:
                    raise AssertionError(f"mismatch at l={l}, s={s}: {lhs} != {rhs}")

    def reduction():
        for p, k, n in ((2, 2, 3), (2, 2, 4), (3, 2, 3)):
            if not verify_reduction(FieldSpec(p), k, n):
                raise AssertionError(f"reduction failed at ({p},{k},{n})")

    def simulation_paths():
        F = FieldSpec(2)
        C = cd.simplex_code(F, 3)
        slow = [simulate_trial(C, 7, t) for t in range(256)]
        for table in (None, _flat_table(F, C.columns, C.k, 256)):
            if _draw_count_array(F, C.columns, 7, 0, 256, table).tolist() != slow:
                raise AssertionError("vector and scalar draw counts differ")

    def gap_sign():
        for q in (2, 3, 4, 5):
            rep = simplex_gap(field_from_order(q), 3)
            if rep.gap < 0:
                raise AssertionError(f"negative gap at q={q}")

    check("closed-form simplex [7,3] GF(2)", simplex_routes)
    check("closed-form hamming [7,4] GF(2)", hamming_routes)
    check("mds equality rs [5,2] GF(5)", mds_equality)
    check("duality identity hamming [7,4] GF(2)", duality_identity)
    check("projective reduction (2,2,3) (2,2,4) (3,2,3)", reduction)
    check("simulation path agreement [7,3] GF(2)", simulation_paths)
    check("gap nonnegativity simplex k=3", gap_sign)
    return "\n".join(lines) + "\n"


# Flags that several subcommands take, each declared once.
_SHARED_FLAGS = {
    "--field": dict(help="field order: 8, 2^3, or q=8"),
    "--code": dict(help="simplex | hamming | rs | dual-of:SPEC | file:PATH"),
    "--k": dict(type=int),
    "--r": dict(type=int),
    "--n": dict(type=int),
    "--out": dict(help="write output to this path instead of stdout"),
    "--digits": dict(type=_positive, default=30),
    "--jobs": dict(type=_positive, default=1),
    "--trials": dict(type=_positive, default=100_000),
    "--seed": dict(type=int, default=0),
}


def _add_command(subs, name: str, handler, summary: str, flags: Tuple[str, ...],
                 required: Tuple[str, ...] = (), formats: Tuple[str, ...] = ()):
    """Add a subcommand that runs handler and takes the named shared flags.

    formats are the choices of its --format flag, the default first;
    commands without any take no --format.
    """
    p = subs.add_parser(name, help=summary)
    p.set_defaults(handler=handler)
    if formats:
        p.add_argument("--format", dest="fmt", choices=formats, default=formats[0])
    for flag in flags:
        p.add_argument(flag, required=flag in required, **_SHARED_FLAGS[flag])
    return p


@lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The CLI's parser, built on the first call and shared by every later one.

    parse_args fills a fresh Namespace on each call, so no value carries
    over from one main call to the next.
    """
    parser = _Parser(prog="coverdepth", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    code_flags = ("--field", "--code", "--k", "--r", "--n", "--out", "--jobs", "--trials", "--seed")

    p = _add_command(subs, "expect", cmd_expect, "expected draw count of a code",
                     code_flags + ("--digits",), required=("--code",), formats=("plain", "json"))
    p.add_argument("--method", choices=("exact", "dual", "formula", "mc"), default="exact")

    _add_command(subs, "bound", cmd_bound, "MDS lower bound n(H(n) - H(n-k))",
                 ("--n", "--k", "--out", "--digits"), required=("--n", "--k"),
                 formats=("plain", "json"))

    p = _add_command(subs, "search", cmd_search, "exhaustive optimum over [n,k] codes",
                     ("--field", "--k", "--n", "--out", "--digits", "--jobs"),
                     required=("--field", "--k", "--n"), formats=("json", "plain"))
    p.add_argument("--mode", choices=("projective", "full"), default="projective")
    p.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET)

    _add_command(subs, "simulate", cmd_simulate, "Monte Carlo estimate of the draw count",
                 code_flags, required=("--code",), formats=("json", "plain"))

    p = _add_command(subs, "asymptotics", cmd_asymptotics, "gap grids against the known limits",
                     ("--k", "--r", "--out", "--digits"), formats=("csv", "json"))
    p.add_argument("--family", required=True, choices=("simplex", "hamming", "binary-hamming"))
    p.add_argument("--q-grid", dest="q_grid")
    p.add_argument("--r-grid", dest="r_grid")

    _add_command(subs, "figure1", cmd_figure1, "simplex vs bound grid, CSV", ("--out", "--digits"))
    _add_command(subs, "verify", cmd_verify, "run the built-in invariant checks", ("--out",))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        text = args.handler(args)
        if args.out is not None:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    if args.command == "verify" and any(
        line.startswith("FAIL") for line in text.splitlines()
    ):
        return 3
    return 0
