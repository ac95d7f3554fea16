"""Exhaustive search for codes minimizing the expected draw count.

The expectation is invariant under permuting generator columns and under
scaling any column by a nonzero scalar: both operations preserve the rank
of every subset of draw positions, hence the whole draw-count distribution.
A candidate is therefore a sorted multiset of projective points, which cuts
the space from q^(kn) matrices to C(P+n-1, n) multisets over the
P = (q^k-1)/(q-1) points. verify_reduction re-checks that argument against
plain matrix enumeration at tiny sizes, including the fact that a zero
column is never part of a strict optimum.

A candidate is scored from its columns alone; no candidate builds a code.
Draws are uniform with repetition, so the value of a candidate depends only
on the multiset of its columns: every search reads sorted multisets of
column indices, over the projective points or, for full mode and
verify_reduction, over all q^k vectors in product order (vector 0, the zero
column, first). One chunk scorer (_scored_chunks) reads them, on every
lattice, from one tail table per column list (coverage._PrimalBatch, built
by _batch). The table lists every sorted tail of the candidates with its
subspace counts and its own integer total; a candidate is a prefix,
enumerated here, plus a run of tails, and each chunk of a run is one gather
over the subspaces the prefix touches, so admissibility, minima and ties
are decided exactly before any Fraction is made and only argmins become
tuples. _score, which builds the candidate's code, is the per-candidate
reference the tests hold the table to.

Both modes, at any jobs value, run one path: the multisets are split by
their first (smallest) column index, each partition is folded into a
running minimum, argmins and runner-up, and the partition folds are merged
in index order with exact comparisons. jobs only decides how many
processes, this one included, fold the partitions (the tail table is built
before any worker starts), so reports do not depend on worker count or
schedule. Full mode exists to cross-check the reduction: it folds the
multisets of nonzero vectors (partitions 1 on), reports the counts of the
ordered matrices they stand for, and maps only its argmins to multisets of
projective points.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, combinations_with_replacement, product, repeat
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .codes import LinearCode, linear_code, projective_points
from .coverage import (
    BudgetExceededError,
    InvariantViolation,
    _PrimalBatch,
    _fan_out,
    _gaussian,
    _mobius,
    _rational_str,
    expectation_exact,
    mds_bound,
)
from .matrix import _dense, eliminate, from_columns, span_basis
from .gf import FieldSpec

DEFAULT_BUDGET = 5_000_000


@dataclass(frozen=True)
class CandidateMultiset:
    """A sorted multiset of projective-point indices, one per column.

    Indices refer to projective_points(field, k) order.
    """

    field: FieldSpec
    k: int
    points: Tuple[int, ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not self.points:
            raise ValueError("need at least one point")
        point_count = _gaussian(self.k, 1, self.field.q)
        if any(not 0 <= i < point_count for i in self.points):
            raise ValueError("point index out of range")
        if any(a > b for a, b in zip(self.points, self.points[1:])):
            raise ValueError("points must be sorted ascending")

    @property
    def n(self) -> int:
        return len(self.points)

    def as_code(self) -> LinearCode:
        pts = projective_points(self.field, self.k)
        cols = [pts[i] for i in self.points]
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


def _check_params(k: int, n: int) -> None:
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")


def _check_budget(factors: Iterable[Tuple[int, int]], budget: int, unit: str) -> None:
    """Raise BudgetExceededError if the product of the a/b factors exceeds budget.

    Each prefix product is an integer no smaller than the last, so the
    count stops growing as soon as it passes the budget: a count with
    millions of digits costs no more than one just over it.
    """
    count = 1
    for a, b in factors:
        count = count * a // b
        if count > budget:
            raise BudgetExceededError(f"more than {budget} {unit}")


def _multisets(points: int, n: int) -> Iterable[Tuple[int, int]]:
    """Factors of C(points + n - 1, n), min(n, points - 1) of them, each at least 2."""
    m = min(n, points - 1)
    top = points + n - 1 - m
    return ((top + i, i) for i in range(1, m + 1))


def _check_search_budget(F: FieldSpec, k: int, n: int, mode: str, budget: int) -> None:
    """Raise BudgetExceededError if n or the number of candidates exceeds budget.

    n is checked first and on its own: a candidate of n columns is built
    whole, so a huge n fails at once, even when it makes a single candidate.
    """
    _check_budget([(n, 1)], budget, "columns per candidate")
    if mode == "projective":
        _check_budget(_multisets(_gaussian(k, 1, F.q), n), budget, "multisets")
    elif mode == "full":
        _check_budget(repeat((F.q**k - 1, 1), n), budget, "matrices")
    else:
        raise ValueError(f"unknown mode {mode!r}")


def _spans(F: FieldSpec, pts: Sequence[Tuple[int, ...]], combo: Sequence[int], k: int) -> bool:
    """Whether the points indexed by combo span GF(q)^k (enumerate_candidates' test)."""
    distinct = dict.fromkeys(combo)
    return len(distinct) >= k and len(span_basis(F, (pts[i] for i in distinct), cap=k)) == k


def enumerate_candidates(
    F: FieldSpec, k: int, n: int, budget: int = DEFAULT_BUDGET
) -> Iterator[CandidateMultiset]:
    """Stream the admissible (spanning) multisets in lexicographic order, each once.

    A plain reference stream: the search itself folds scored chunks instead.
    """
    _check_params(k, n)
    _check_search_budget(F, k, n, "projective", budget)
    pts = projective_points(F, k)
    for combo in combinations_with_replacement(range(len(pts)), n):
        if _spans(F, pts, combo, k):
            yield CandidateMultiset(F, k, combo)


def _score(F: FieldSpec, pts: Sequence[Tuple[int, ...]], combo: Sequence[int]) -> Optional[Fraction]:
    """Exact expectation of the candidate's code, or None unless its points span (the tests' reference)."""
    cols = [pts[i] for i in combo]
    k = len(cols[0])
    if len(span_basis(F, cols, cap=k)) < k:
        return None
    return expectation_exact(linear_code(from_columns(F, cols)))


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
        if self.best != best:
            self.argmins = []
        if other.best == best:
            self.argmins.extend(other.argmins)
        self.best = best
        self.second = min((v for v in values if v > best), default=None)


def _columns(F: FieldSpec, k: int, kind: str) -> List[Tuple[int, ...]]:
    """The projective points, or the q^k vectors in product order (vector 0 first)."""
    if kind == "points":
        return projective_points(F, k)
    return list(product(range(F.q), repeat=k))


@lru_cache(maxsize=8)
def _batch(F: FieldSpec, k: int, n: int, kind: str) -> _PrimalBatch:
    """The tail table of n-column candidates over _columns(F, k, kind)."""
    return _PrimalBatch(F, _columns(F, k, kind), k, n)


def _scored_chunks(batch: _PrimalBatch, first: int) -> Iterator[tuple]:
    """(prefix, tails, rows, keys) for each chunk of candidates over a tail table's columns.

    The candidates are the sorted n-tuples of column indices whose smallest
    index is first, in enumeration order. A chunk holds the candidates
    prefix + tails[i]; rows lists its spanning ones and keys[j] is candidate
    rows[j]'s integer total, which batch.value turns into its expectation.
    """
    for rest in combinations_with_replacement(range(first, batch.width), batch.n - batch.tail - 1):
        yield from batch.read((first,) + rest)


def _fold_chunks(batch: _PrimalBatch, first: int) -> _Fold:
    """Fold of the candidates of _scored_chunks(batch, first), chunk by chunk.

    The fold runs on keys, and only a chunk that can still change its
    minimum, argmins or runner-up is looked into; the two extremes become
    values at the end.
    """
    fold = _Fold()
    for prefix, tails, rows, keys in _scored_chunks(batch, first):
        fold.examined += len(tails)
        fold.admissible += rows.size
        if not rows.size:
            continue
        low = keys.min()
        if fold.second is not None and low >= fold.second:
            continue
        part = _Fold()
        part.best = low
        part.argmins = [prefix + tuple(tails[i].tolist()) for i in rows[keys == low]]
        above = keys[keys > low]
        part.second = above.min() if above.size else None
        fold.merge(part)
    fold.best, fold.second = (None if key is None else batch.value(key) for key in (fold.best, fold.second))
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
    larger value seen. Both modes fold one partition per first column, on
    `jobs` processes, this one included (coverage._fan_out): projective mode
    over the points, full mode over the nonzero vectors, reporting the
    counts of the (q^k - 1)^n matrices whose multisets it folds.
    """
    _check_params(k, n)
    if jobs < 1:
        raise ValueError("jobs must be positive")
    _check_search_budget(F, k, n, mode, budget)
    start = time.perf_counter()
    projective = mode == "projective"
    batch = _batch(F, k, n, "points" if projective else "vectors")  # built before any worker starts
    fold = _Fold()
    for part in _fan_out(partial(_fold_chunks, batch), range(0 if projective else 1, batch.width), jobs):
        fold.merge(part)
    if not projective:
        # Report the matrices' counts: (q^d - 1)^n matrices of nonzero columns
        # lie in each d-dimensional subspace; Moebius inversion leaves the spanning ones.
        q = F.q
        fold.examined = (q**k - 1) ** n
        fold.admissible = sum(_mobius(k - d, q) * _gaussian(k, d, q) * (q**d - 1) ** n for d in range(k + 1))
        # Only the argmin matrices map to multisets of projective points.
        # Against an empty basis, eliminate just scales a vector to its class.
        vectors = _columns(F, k, "vectors")
        index = {p: i for i, p in enumerate(projective_points(F, k))}
        point = {v: index[tuple(_dense(k, eliminate(F, [], vectors[v])[1]))]
                 for v in set(chain.from_iterable(fold.argmins))}
        fold.argmins = list({tuple(sorted(map(point.get, cols))) for cols in fold.argmins})
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


def _key_set(batch: _PrimalBatch, firsts: Iterable[int]) -> set:
    """The integer totals of the spanning candidates whose smallest column index is in firsts."""
    return {key for first in firsts for *_, keys in _scored_chunks(batch, first) for key in keys.tolist()}


def verify_reduction(F: FieldSpec, k: int, n: int, guard: int = 10**7) -> bool:
    """Check the projective reduction against raw matrix enumeration.

    True iff the expectation values over all rank-k matrices with nonzero
    columns coincide, as a set, with the values over projective candidates,
    the minima agree, and every spanning matrix containing a zero column
    scores strictly worse than the nonzero minimum.
    """
    _check_params(k, n)
    _check_budget(repeat((F.q, 1), k * n), guard, "matrices")
    # Raw matrices are read as multisets over all q^k vectors in product
    # order, so vector 0 is the zero column and the matrices holding it are
    # exactly partition 0. Keys become values once, as sets.
    raw, points = _batch(F, k, n, "vectors"), _batch(F, k, n, "points")
    zero_col = _key_set(raw, [0])
    nonzero = _key_set(raw, range(1, raw.width))
    projective = _key_set(points, range(points.width))
    nonzero_values = {raw.value(key) for key in nonzero}
    if nonzero_values != {points.value(key) for key in projective}:
        return False
    return not zero_col or raw.value(min(zero_col)) > min(nonzero_values)
