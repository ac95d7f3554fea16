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
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Tuple

from . import codes as cd
from .asymptotics import gap_grid, grid_csv, simplex_gap
from .coverage import (
    InvariantViolation,
    decimal_str,
    expectation_exact,
    expectation_exact_auto,
    expectation_exact_dual,
    expectation_hamming,
    expectation_monte_carlo,
    expectation_simplex,
    mds_bound,
    _draw_counts,
)
from .gf import FieldSpec, field_from_order, is_prime_power, parse_field_spec
from .matrix import columns_of, parse_matrix
from .search import BudgetExceededError, DEFAULT_BUDGET, optimal_coverage, verify_reduction

FIG_K = (3, 4, 5, 6, 7)
FIG_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1.
    def error(self, message):
        raise _UsageError(message)


@dataclass
class RunConfig:
    command: str
    field: Optional[str] = None
    code: Optional[str] = None
    method: str = "exact"
    trials: int = 100_000
    seed: int = 0
    fmt: Optional[str] = None
    out: Optional[str] = None
    digits: int = 30
    jobs: int = 1
    budget: int = DEFAULT_BUDGET
    k: Optional[int] = None
    r: Optional[int] = None
    n: Optional[int] = None
    mode: str = "projective"
    family: Optional[str] = None
    q_grid: Optional[str] = None
    r_grid: Optional[str] = None

    def __post_init__(self):
        if self.digits < 1:
            raise _UsageError("--digits must be positive")
        if self.jobs < 1:
            raise _UsageError("--jobs must be positive")
        if self.budget < 1:
            raise _UsageError("--budget must be positive")
        if self.method == "mc" and self.trials < 1:
            raise _UsageError("--method mc requires --trials >= 1")

    def field_spec(self) -> FieldSpec:
        if self.field is None:
            raise _UsageError("--field is required for this command")
        return parse_field_spec(self.field)


def _rat(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _needs(config: RunConfig, **params) -> List[int]:
    out = []
    for name, value in params.items():
        if value is None:
            raise _UsageError(f"--{name} is required for code {config.code!r}")
        out.append(value)
    return out


def _build_code(config: RunConfig, spec: Optional[str] = None) -> cd.LinearCode:
    spec = config.code if spec is None else spec
    if spec is None:
        raise _UsageError("--code is required")
    if spec.startswith("dual-of:"):
        return cd.dual(_build_code(config, spec[len("dual-of:"):]))
    if spec.startswith("file:"):
        text = Path(spec[len("file:"):]).read_text()
        return cd.linear_code(parse_matrix(text))
    F = config.field_spec()
    if spec == "simplex":
        (k,) = _needs(config, k=config.k)
        return cd.simplex_code(F, k)
    if spec == "hamming":
        (r,) = _needs(config, r=config.r)
        return cd.hamming_code(F, r)
    if spec == "rs":
        n, k = _needs(config, n=config.n, k=config.k)
        return cd.reed_solomon(F, n, k)
    raise _UsageError(f"unknown code spec {spec!r}")


def _formula_value(config: RunConfig, C: cd.LinearCode) -> Fraction:
    if config.code == "simplex":
        return expectation_simplex(C.field.q, C.k)
    if config.code == "hamming":
        return expectation_hamming(C.field.q, config.r)
    raise ValueError("--method formula applies to --code simplex or hamming only")


def cmd_expect(config: RunConfig) -> str:
    C = _build_code(config)
    bound = mds_bound(C.n, C.k)
    digits = config.digits
    doc = {
        "code": config.code,
        "n": C.n,
        "k": C.k,
        "q": C.field.q,
        "method": config.method,
    }
    if config.method == "mc":
        est = expectation_monte_carlo(C, config.trials, config.seed, config.jobs)
        doc.update(
            value_rational=None,
            value_decimal=None,
            trials=est.trials,
            seed=est.seed,
            mean=est.mean,
            std_error=est.std_error,
            min_draws=est.min_draws,
            max_draws=est.max_draws,
            bound_rational=_rat(bound),
            bound_decimal=decimal_str(bound, digits),
            gap_rational=None,
            meets_mds_bound=None,
        )
        if config.fmt == "json":
            return json.dumps(doc, indent=2) + "\n"
        return (
            f"mean {est.mean:.6f} +- {est.std_error:.6f}\n"
            f"trials {est.trials} seed {est.seed} min {est.min_draws} max {est.max_draws}\n"
            f"bound {_rat(bound)} ({decimal_str(bound, digits)})\n"
        )
    if config.method == "exact":
        value = expectation_exact_auto(C)
    elif config.method == "dual":
        value = expectation_exact_dual(C)
    elif config.method == "formula":
        value = _formula_value(config, C)
    else:
        raise _UsageError(f"unknown method {config.method!r}")
    gap = value - bound
    doc.update(
        value_rational=_rat(value),
        value_decimal=decimal_str(value, digits),
        bound_rational=_rat(bound),
        bound_decimal=decimal_str(bound, digits),
        gap_rational=_rat(gap),
        meets_mds_bound=gap == 0,
    )
    if config.fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    lines = [
        f"value {_rat(value)} ({decimal_str(value, digits)})",
        f"bound {_rat(bound)} ({decimal_str(bound, digits)})",
        f"gap {_rat(gap)} ({decimal_str(gap, digits)})",
    ]
    if gap == 0:
        lines.append("meets MDS bound")
    return "\n".join(lines) + "\n"


def cmd_bound(config: RunConfig) -> str:
    if config.n is None or config.k is None:
        raise _UsageError("bound requires --n and --k")
    value = mds_bound(config.n, config.k)
    if config.fmt == "json":
        doc = {
            "n": config.n,
            "k": config.k,
            "bound_rational": _rat(value),
            "bound_decimal": decimal_str(value, config.digits),
        }
        return json.dumps(doc, indent=2) + "\n"
    return f"{_rat(value)} ({decimal_str(value, config.digits)})\n"


def cmd_search(config: RunConfig) -> str:
    if config.k is None or config.n is None:
        raise _UsageError("search requires --k and --n")
    F = config.field_spec()
    report = optimal_coverage(
        F, config.k, config.n, mode=config.mode, jobs=config.jobs, budget=config.budget
    )
    if config.fmt == "json":
        return json.dumps(report.to_json_dict(), indent=2) + "\n"
    digits = config.digits
    lines = [
        f"search n={report.n} k={report.k} q={report.q} mode={report.mode}",
        f"examined {report.candidates_examined} admissible {report.candidates_admissible}",
        f"minimum {_rat(report.minimum)} ({decimal_str(report.minimum, digits)})",
    ]
    for cand in report.optimal_candidates:
        lines.append(f"optimal {list(cand.points)}")
    if report.runner_up is not None:
        lines.append(
            f"runner_up {_rat(report.runner_up)} ({decimal_str(report.runner_up, digits)})"
        )
    return "\n".join(lines) + "\n"


def cmd_simulate(config: RunConfig) -> str:
    C = _build_code(config)
    if config.trials < 1:
        raise _UsageError("--trials must be >= 1")
    est = expectation_monte_carlo(C, config.trials, config.seed, config.jobs)
    if config.fmt == "json":
        doc = {
            "code": config.code,
            "n": C.n,
            "k": C.k,
            "q": C.field.q,
            "trials": est.trials,
            "seed": est.seed,
            "mean": est.mean,
            "std_error": est.std_error,
            "min_draws": est.min_draws,
            "max_draws": est.max_draws,
        }
        return json.dumps(doc, indent=2) + "\n"
    return (
        f"mean {est.mean:.6f} +- {est.std_error:.6f}\n"
        f"trials {est.trials} seed {est.seed} min {est.min_draws} max {est.max_draws}\n"
    )


def _parse_grid(text: str, kind: str) -> List[int]:
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise _UsageError(f"empty grid {text!r}")
        values = list(range(lo, hi + 1))
        if kind == "q":
            return [v for v in values if is_prime_power(v)]
        return values
    values = [int(part) for part in text.split(",") if part.strip()]
    if not values:
        raise _UsageError(f"empty grid {text!r}")
    if kind == "q":
        for v in values:
            if not is_prime_power(v):
                raise _UsageError(f"{v} is not a prime power")
    return values


def cmd_asymptotics(config: RunConfig) -> str:
    family = config.family
    if family is None:
        raise _UsageError("asymptotics requires --family")
    if family in ("simplex", "hamming"):
        if config.q_grid is None:
            raise _UsageError(f"family {family} requires --q-grid")
        values = _parse_grid(config.q_grid, "q")
        reports = gap_grid(family, values, k=config.k, r=config.r)
    elif family == "binary-hamming":
        if config.r_grid is None:
            raise _UsageError("family binary-hamming requires --r-grid")
        reports = gap_grid(family, _parse_grid(config.r_grid, "r"))
    else:
        raise _UsageError(f"unknown family {family!r}")
    if config.fmt == "json":
        rows = []
        for rep in reports:
            rows.append({
                "q": rep.q,
                "k_or_r": rep.k_or_r,
                "n": rep.n,
                "exact": _rat(rep.exact_expectation),
                "bound": _rat(rep.bound),
                "gap": _rat(rep.gap),
                "ratio": format(rep.ratio, "f"),
                "predicted_term": (
                    format(rep.predicted_leading_term, "f")
                    if rep.predicted_leading_term is not None
                    else None
                ),
            })
        return json.dumps(rows, indent=2) + "\n"
    return grid_csv(reports, config.digits)


def cmd_figure1(config: RunConfig) -> str:
    digits = max(config.digits, 20)
    lines = ["k,q,simplex_value,bound_value"]
    for k in FIG_K:
        for q in FIG_Q:
            n = (q**k - 1) // (q - 1)
            lines.append(",".join([
                str(k),
                str(q),
                decimal_str(expectation_simplex(q, k), digits),
                decimal_str(mds_bound(n, k), digits),
            ]))
    return "\n".join(lines) + "\n"


def _verify_checks() -> List[Tuple[str, bool, str]]:
    results = []

    def check(name, fn):
        try:
            fn()
            results.append((name, True, ""))
        except Exception as exc:
            results.append((name, False, f"{type(exc).__name__}: {exc}"))

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
        cols = columns_of(C.generator)
        fast = _draw_counts(F, cols, C.n, C.k, 7, 0, 256)
        slow = _draw_counts(F, cols, C.n, C.k, 7, 0, 256, force_scalar=True)
        if fast != slow:
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
    return results


def cmd_verify(config: RunConfig) -> str:
    lines = []
    for name, ok, detail in _verify_checks():
        if ok:
            lines.append(f"ok {name}")
        else:
            lines.append(f"FAIL {name}: {detail}")
    return "\n".join(lines) + "\n"


_DEFAULT_FORMATS = {
    "expect": "plain",
    "bound": "plain",
    "search": "json",
    "simulate": "json",
    "asymptotics": "csv",
    "figure1": "csv",
    "verify": "plain",
}

_COMMANDS = {
    "expect": cmd_expect,
    "bound": cmd_bound,
    "search": cmd_search,
    "simulate": cmd_simulate,
    "asymptotics": cmd_asymptotics,
    "figure1": cmd_figure1,
    "verify": cmd_verify,
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--field", help="field order: 8, 2^3, or q=8")
    sub.add_argument("--format", dest="fmt", choices=("plain", "json", "csv"))
    sub.add_argument("--out", help="write output to this path instead of stdout")
    sub.add_argument("--digits", type=int, default=30)
    sub.add_argument("--jobs", type=int, default=1)
    sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET)


def build_parser() -> _Parser:
    parser = _Parser(prog="coverdepth", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("expect", help="expected draw count of a code")
    _add_common(p)
    p.add_argument("--code", required=True, help="simplex | hamming | rs | dual-of:SPEC | file:PATH")
    p.add_argument("--method", choices=("exact", "dual", "formula", "mc"), default="exact")
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    p = subs.add_parser("bound", help="MDS lower bound n(H(n) - H(n-k))")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = subs.add_parser("search", help="exhaustive optimum over [n,k] codes")
    _add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("projective", "full"), default="projective")

    p = subs.add_parser("simulate", help="Monte Carlo estimate of the draw count")
    _add_common(p)
    p.add_argument("--code", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    p = subs.add_parser("asymptotics", help="gap grids against the known limits")
    _add_common(p)
    p.add_argument("--family", choices=("simplex", "hamming", "binary-hamming"))
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--q-grid", dest="q_grid")
    p.add_argument("--r-grid", dest="r_grid")

    p = subs.add_parser("figure1", help="simplex vs bound grid, CSV")
    _add_common(p)

    p = subs.add_parser("verify", help="run the built-in invariant checks")
    _add_common(p)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {f for f in RunConfig.__dataclass_fields__}
    present = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    config = RunConfig(**present)
    if config.fmt is None:
        config.fmt = _DEFAULT_FORMATS[config.command]
    return config


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        text = _COMMANDS[config.command](config)
        if config.out is not None:
            Path(config.out).write_text(text)
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
    if config.command == "verify" and any(
        line.startswith("FAIL") for line in text.splitlines()
    ):
        return 3
    return 0
