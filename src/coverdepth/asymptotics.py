"""Limit behaviour of the draw-count expectation for growing codes.

The exact engines answer single instances; this module evaluates the known
limits and leading terms next to them so convergence can be inspected on a
finite grid:

  * rate limit: for [n, Rn] codes the per-dimension cost tends to
    (1/R) ln(1/(1-R)), and to 1 when the rate vanishes;
  * simplex family, growing q: the gap above the lower bound behaves like
    1/(q-1);
  * simplex family, growing k: the gap tends to sum_{i>=1} 1/(q^i - 1);
  * Hamming family: the gap is bounded by (H_r - (r-1)/r) q^(r-2) to
    leading order, and over GF(2) the expectation/bound ratio is bounded
    through harmonic differences.

Limit statements are not checkable in finite time; the tests pin down
monotone trends and proximity at the largest feasible parameters instead.
All report fields stay exact rationals except the two display decimals.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, List, NamedTuple, Optional

from .coverage import (
    InvariantViolation,
    _gaussian,
    expectation_hamming,
    expectation_simplex,
    harmonic,
    mds_bound,
    to_decimal,
)
from .gf import FieldSpec, field_from_order

# Limit of E/k when k/n tends to zero.
VANISHING_RATE_LIMIT = 1.0


@dataclass(frozen=True)
class GapReport:
    """Exact expectation next to the lower bound, with the asymptotic prediction.

    predicted_leading_term is the family's limit object: 1/(q-1) for simplex
    grids in q, the Hamming leading term for Hamming grids, and the limiting
    ratio bound for the binary Hamming family. It is None when the producing
    function cannot justify a prediction.
    """

    q: int
    k_or_r: int
    n: int
    exact_expectation: Fraction
    bound: Fraction
    gap: Fraction
    ratio: Decimal
    predicted_leading_term: Optional[Decimal]

    def __post_init__(self):
        if self.gap != self.exact_expectation - self.bound:
            raise InvariantViolation("gap field inconsistent with its parts")
        if self.gap < 0:
            raise InvariantViolation("expectation fell below the lower bound")


def mds_rate_limit(rate) -> float:
    """lim E/k over [n, Rn] codes as n grows: (1/R) ln(1/(1-R))."""
    r = float(rate)
    if not 0.0 < r < 1.0:
        raise ValueError("rate must lie strictly between 0 and 1")
    return math.log(1.0 / (1.0 - r)) / r


def simplex_gap(F: FieldSpec, k: int) -> GapReport:
    """Gap report for the k-dimensional simplex code over F.

    The 1/(q-1) prediction is a growing-q statement for fixed k >= 3; for
    smaller k the values are still exact but no prediction is attached.
    """
    q = F.q
    n = _gaussian(k, 1, q)
    exact = expectation_simplex(q, k)
    bound = mds_bound(n, k)
    if k >= 3:
        predicted = to_decimal(Fraction(1, q - 1))
    else:
        warnings.warn(f"leading-term prediction needs k >= 3, got k={k}", stacklevel=2)
        predicted = None
    return GapReport(q, k, n, exact, bound, exact - bound, to_decimal(exact / bound), predicted)


class SeriesLimit(NamedTuple):
    value: Fraction
    terms: int


def simplex_gap_series_limit(F: FieldSpec, tol) -> SeriesLimit:
    """Partial sum of sum_{i>=1} 1/(q^i - 1), the fixed-q large-k gap limit.

    Terms are added until the geometric tail bound 2/q^terms drops below
    tol, so the returned value is within tol of the true series.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    q = F.q
    total = Fraction(0)
    terms = 0
    while Fraction(2, q**terms) >= tol:
        terms += 1
        total += Fraction(1, q**terms - 1)
    return SeriesLimit(total, terms)


def hamming_gap_bound(F: FieldSpec, r: int) -> Decimal:
    """Leading term (H_r - (r-1)/r) q^(r-2) of the Hamming-family gap bound."""
    if r < 2:
        raise ValueError("redundancy must be at least 2")
    q = F.q
    return to_decimal((harmonic(r) - Fraction(r - 1, r)) * q ** (r - 2))


def hamming_gap(F: FieldSpec, r: int) -> GapReport:
    """Gap report for the redundancy-r Hamming code over F."""
    q = F.q
    n = _gaussian(r, 1, q)
    exact = expectation_hamming(q, r)
    bound = mds_bound(n, n - r)
    return GapReport(
        q, r, n, exact, bound, exact - bound, to_decimal(exact / bound), hamming_gap_bound(F, r)
    )


def binary_hamming_ratio_bound(r: int) -> Decimal:
    """H_(2^r - 1) - H_r, the limiting expectation/bound ratio over GF(2)."""
    if r < 2:
        raise ValueError("redundancy must be at least 2")
    return to_decimal(harmonic(2**r - 1) - harmonic(r))


def binary_hamming_gap_coefficient(r: int) -> Decimal:
    """(H_(2^r - 1) - H_r - 1) 2^r, the ratio bound recast for the gap."""
    if r < 2:
        raise ValueError("redundancy must be at least 2")
    return to_decimal((harmonic(2**r - 1) - harmonic(r) - 1) * 2**r)


def binary_hamming_gap(r: int) -> GapReport:
    """hamming_gap over GF(2), with the limiting ratio bound as its prediction."""
    return replace(hamming_gap(field_from_order(2), r),
                   predicted_leading_term=binary_hamming_ratio_bound(r))


def gap_grid(family: str, values: Iterable[int], k: Optional[int] = None,
             r: Optional[int] = None) -> List[GapReport]:
    """Reports for one family over a parameter grid, sorted by parameter.

    family "simplex" varies q at fixed k, "hamming" varies q at fixed r,
    "binary-hamming" varies r with q = 2.
    """
    grid = sorted(set(values))
    if family == "simplex":
        if k is None:
            raise ValueError("simplex grid needs k")
        return [simplex_gap(field_from_order(q), k) for q in grid]
    if family == "hamming":
        if r is None:
            raise ValueError("hamming grid needs r")
        return [hamming_gap(field_from_order(q), r) for q in grid]
    if family == "binary-hamming":
        return [binary_hamming_gap(rr) for rr in grid]
    raise ValueError(f"unknown family {family!r}")


def grid_csv(reports: Iterable[GapReport], digits: int = 30) -> str:
    """Render reports as CSV, rationals rounded to the requested digits."""
    lines = ["q,k_or_r,n,exact,bound,gap,ratio,predicted_term"]
    for rep in reports:
        pred = format(rep.predicted_leading_term, "f") if rep.predicted_leading_term is not None else ""
        lines.append(",".join([
            str(rep.q),
            str(rep.k_or_r),
            str(rep.n),
            format(to_decimal(rep.exact_expectation, digits), "f"),
            format(to_decimal(rep.bound, digits), "f"),
            format(to_decimal(rep.gap, digits), "f"),
            format(rep.ratio, "f"),
            pred,
        ]))
    return "\n".join(lines) + "\n"
