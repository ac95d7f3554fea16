"""Exhaustive search for codes minimizing the expected draw count.

The expectation is invariant under permuting generator columns and under
scaling any column by a nonzero scalar: both operations preserve the rank
of every subset of draw positions, hence the whole draw-count distribution.
A candidate is therefore a sorted multiset of projective points, which cuts
the space from q^(kn) matrices to C(P+n-1, n) multisets over the
P = (q^k-1)/(q-1) points. verify_reduction re-checks that argument against
plain matrix enumeration at tiny sizes, including the fact that a zero
column is never part of a strict optimum.

Every projective search, at any jobs value, runs one path: the multisets
are split by their first (smallest) point index, each partition is folded
into a running minimum, argmins and runner-up, and the partition folds are
merged in index order with exact comparisons. jobs only decides whether the
partitions run in this process or in worker processes, so reports do not
depend on worker count or schedule. Full mode exists for cross-checking,
runs in-process and ignores jobs.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb
from typing import Iterator, List, Optional, Sequence, Tuple

from .codes import LinearCode, _span_rank, linear_code, projective_points
from .coverage import InvariantViolation, _fan_out, _rational_str, expectation_exact_auto, mds_bound
from .matrix import from_columns
from .gf import FieldSpec

DEFAULT_BUDGET = 5_000_000


class BudgetExceededError(RuntimeError):
    """The requested enumeration is larger than the configured budget."""


@dataclass(frozen=True)
class CandidateMultiset:
    """A sorted multiset of projective-point indices, one per column.

    Indices refer to projective_points(field, k) order. zero_columns pads
    the code with that many zero columns; enumeration never produces any,
    the field exists so dominance experiments can express padded codes.
    """

    field: FieldSpec
    k: int
    points: Tuple[int, ...]
    zero_columns: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.zero_columns < 0:
            raise ValueError("zero_columns must be nonnegative")
        if not self.points:
            raise ValueError("need at least one point")
        point_count = _point_count(self.field, self.k)
        if any(not 0 <= i < point_count for i in self.points):
            raise ValueError("point index out of range")
        if any(a > b for a, b in zip(self.points, self.points[1:])):
            raise ValueError("points must be sorted ascending")

    @property
    def n(self) -> int:
        return len(self.points) + self.zero_columns

    def as_code(self) -> LinearCode:
        pts = projective_points(self.field, self.k)
        cols = [pts[i] for i in self.points]
        cols.extend([(0,) * self.k] * self.zero_columns)
        return linear_code(from_columns(self.field, cols))


@dataclass(frozen=True)
class SearchReport:
    n: int
    k: int
    q: int
    mode: str
    candidates_examined: int
    candidates_admissible: int
    minimum: Fraction
    optimal_candidates: Tuple[CandidateMultiset, ...]
    runner_up: Optional[Fraction]
    wall_time: float

    def __post_init__(self):
        if not self.optimal_candidates:
            raise InvariantViolation("search produced no optimum")
        if self.runner_up is not None and self.minimum > self.runner_up:
            raise InvariantViolation("minimum exceeds runner-up")
        if self.minimum < mds_bound(self.n, self.k):
            raise InvariantViolation("minimum fell below the lower bound")

    def to_json_dict(self) -> dict:
        # wall_time is deliberately left out: every other field is a pure
        # function of the inputs, so serialized reports stay byte-stable.
        return {
            "n": self.n,
            "k": self.k,
            "q": self.q,
            "mode": self.mode,
            "candidates_examined": self.candidates_examined,
            "candidates_admissible": self.candidates_admissible,
            "minimum": _rational_str(self.minimum),
            "optimal_candidates": [list(c.points) for c in self.optimal_candidates],
            "runner_up": _rational_str(self.runner_up) if self.runner_up is not None else None,
        }


def _check_params(F: FieldSpec, k: int, n: int) -> None:
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")


def _point_count(F: FieldSpec, k: int) -> int:
    """P = (q^k - 1)/(q - 1), the length of projective_points(F, k), without building it."""
    return (F.q**k - 1) // (F.q - 1)


def _check_budget(raw: int, budget: int, unit: str) -> None:
    if raw > budget:
        raise BudgetExceededError(f"{raw} {unit} exceed budget {budget}")


def _spans(F: FieldSpec, pts: Sequence[Tuple[int, ...]], combo: Sequence[int], k: int) -> bool:
    """Whether the points indexed by combo span GF(q)^k (the admissibility test)."""
    distinct = dict.fromkeys(combo)
    return len(distinct) >= k and _span_rank(F, (pts[i] for i in distinct), cap=k) == k


def _projective_class(F: FieldSpec, col: Sequence[int]) -> Tuple[int, ...]:
    lead = next(i for i, c in enumerate(col) if c)
    inv = F.inv(col[lead])
    if inv == 1:
        return tuple(col)
    return tuple(F.mul(inv, c) for c in col)


def enumerate_candidates(
    F: FieldSpec, k: int, n: int, mode: str = "projective", budget: int = DEFAULT_BUDGET
) -> Iterator[CandidateMultiset]:
    """Stream the admissible (spanning) candidates in lexicographic order.

    Projective mode emits each multiset exactly once. Full mode walks every
    nonzero-column matrix instead and emits the multiset of its columns'
    projective classes, duplicates included; it exists so the reduction can
    be cross-checked, not for real searches.
    """
    _check_params(F, k, n)
    if mode == "projective":
        _check_budget(comb(_point_count(F, k) + n - 1, n), budget, "multisets")
        pts = projective_points(F, k)
        for combo in combinations_with_replacement(range(len(pts)), n):
            if _spans(F, pts, combo, k):
                yield CandidateMultiset(F, k, combo)
        return
    if mode == "full":
        _check_budget((F.q**k - 1) ** n, budget, "matrices")
        nonzero = [v for v in product(range(F.q), repeat=k) if any(v)]
        index = {p: i for i, p in enumerate(projective_points(F, k))}
        for cols in product(nonzero, repeat=n):
            if _span_rank(F, cols, cap=k) == k:
                classes = sorted(index[_projective_class(F, c)] for c in cols)
                yield CandidateMultiset(F, k, tuple(classes))
        return
    raise ValueError(f"unknown mode {mode!r}")


def _score(F: FieldSpec, pts: Sequence[Tuple[int, ...]], combo: Sequence[int]) -> Fraction:
    code = linear_code(from_columns(F, [pts[i] for i in combo]))
    return expectation_exact_auto(code)


class _Fold:
    """Running minimum with argmins plus the smallest strictly larger value.

    Also carries the examined and admissible candidate counts, so that
    partition folds merge into exactly the fold of the whole search.
    """

    def __init__(self):
        self.examined = 0
        self.admissible = 0
        self.best: Optional[Fraction] = None
        self.argmins: List[Tuple[int, ...]] = []
        self.second: Optional[Fraction] = None

    def add(self, value: Fraction, points: Tuple[int, ...]) -> None:
        if self.best is None or value < self.best:
            if self.best is not None:
                self.second = self.best if self.second is None else min(self.second, self.best)
            self.best = value
            self.argmins = [points]
        elif value == self.best:
            self.argmins.append(points)
        elif self.second is None or value < self.second:
            self.second = value

    def merge(self, other: "_Fold") -> None:
        """Fold in another partition's fold; argmins keep self-then-other order."""
        self.examined += other.examined
        self.admissible += other.admissible
        values = [v for v in (self.best, self.second, other.best, other.second) if v is not None]
        if not values:
            return
        best = min(values)
        self.argmins = (self.argmins if self.best == best else []) + (
            other.argmins if other.best == best else []
        )
        self.best = best
        self.second = min((v for v in values if v > best), default=None)


def _search_partition(task) -> _Fold:
    """Fold every multiset whose smallest point index is `first`."""
    F, k, n, first = task
    pts = projective_points(F, k)
    fold = _Fold()
    for tail in combinations_with_replacement(range(first, len(pts)), n - 1):
        combo = (first,) + tail
        fold.examined += 1
        if _spans(F, pts, combo, k):
            fold.admissible += 1
            fold.add(_score(F, pts, combo), combo)
    return fold


def optimal_coverage(
    F: FieldSpec,
    k: int,
    n: int,
    mode: str = "projective",
    jobs: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> SearchReport:
    """Exhaustive minimum of the expected draw count over [n, k] codes.

    Returns the exact minimum, every candidate attaining it (sorted, so the
    first entry is the canonical representative), and the smallest strictly
    larger value seen. Projective mode folds one partition per first point,
    in this process when jobs == 1 and on `jobs` worker processes otherwise.
    Full mode ignores jobs; it only exists for cross-checking and repeats
    multisets, each of which is scored once.
    """
    _check_params(F, k, n)
    if jobs < 1:
        raise ValueError("jobs must be positive")
    start = time.perf_counter()
    fold = _Fold()
    if mode == "projective":
        point_count = _point_count(F, k)
        _check_budget(comb(point_count + n - 1, n), budget, "multisets")
        tasks = [(F, k, n, first) for first in range(point_count)]
        for part in _fan_out(_search_partition, tasks, jobs):
            fold.merge(part)
    else:
        counts = Counter(cand.points for cand in enumerate_candidates(F, k, n, mode, budget))
        fold.examined = (F.q**k - 1) ** n
        fold.admissible = sum(counts.values())
        pts = projective_points(F, k)
        for points in counts:
            fold.add(_score(F, pts, points), points)
    elapsed = time.perf_counter() - start
    optimal = tuple(CandidateMultiset(F, k, points) for points in sorted(fold.argmins))
    return SearchReport(
        n=n,
        k=k,
        q=F.q,
        mode=mode,
        candidates_examined=fold.examined,
        candidates_admissible=fold.admissible,
        minimum=fold.best,
        optimal_candidates=optimal,
        runner_up=fold.second,
        wall_time=elapsed,
    )


def verify_reduction(F: FieldSpec, k: int, n: int, guard: int = 10**7) -> bool:
    """Check the projective reduction against raw matrix enumeration.

    True iff the expectation values over all rank-k matrices with nonzero
    columns coincide, as a set, with the values over projective candidates,
    the minima agree, and every spanning matrix containing a zero column
    scores strictly worse than the nonzero minimum.
    """
    _check_params(F, k, n)
    if F.q ** (k * n) > guard:
        raise BudgetExceededError(f"{F.q ** (k * n)} matrices exceed guard {guard}")
    nonzero_values = set()
    zero_col_best: Optional[Fraction] = None
    for cols in product(product(range(F.q), repeat=k), repeat=n):
        if _span_rank(F, cols, cap=k) < k:
            continue
        value = expectation_exact_auto(linear_code(from_columns(F, cols)))
        if all(any(c) for c in cols):
            nonzero_values.add(value)
        elif zero_col_best is None or value < zero_col_best:
            zero_col_best = value
    pts = projective_points(F, k)
    projective_values = {
        _score(F, pts, cand.points) for cand in enumerate_candidates(F, k, n, "projective")
    }
    if nonzero_values != projective_values:
        return False
    if min(nonzero_values) != min(projective_values):
        return False
    if zero_col_best is not None and zero_col_best <= min(nonzero_values):
        return False
    return True
