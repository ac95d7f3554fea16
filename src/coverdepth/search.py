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
One chunk scorer (_scored_chunks) reads projective partitions and the raw
matrices of full mode and verify_reduction (candidates over all q^k
vectors), and one helper (_reader) decides for all of them whether the
subspace lattice of GF(q)^k is kept. If it is, each chunk is read in one
batch (coverage._PrimalBatch): the chunk's subspace counts are sums of rows of
the columns' incidence matrix, and its values and admissibility (whether
the columns span) come from one integer table, so minima and ties are
decided exactly before any Fraction is made. Otherwise each candidate goes
through _score (coverage._exact_from_columns), which also rejects it if its
columns do not span; for n - k <= k it counts on the kernel of the
candidate's columns.

Every projective search, at any jobs value, runs one path: the multisets
are split by their first (smallest) point index, each partition is folded
into a running minimum, argmins and runner-up, and the partition folds are
merged in index order with exact comparisons. jobs only decides whether the
partitions run in this process or in worker processes, so reports do not
depend on worker count or schedule. Full mode exists to cross-check the
reduction: it folds every matrix with nonzero columns, runs in-process,
ignores jobs, and maps only its argmins to multisets of projective points.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations_with_replacement, islice, product, repeat
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .codes import LinearCode, linear_code, projective_points
from .coverage import (
    BudgetExceededError,
    InvariantViolation,
    _PrimalBatch,
    _exact_from_columns,
    _fan_out,
    _gaussian,
    _lattice_kept,
    _rational_str,
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
    """Exact expectation of the candidate, or None when its points do not span."""
    return _exact_from_columns(F, [pts[i] for i in combo], len(pts[0]))


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


# Candidates per chunk when the lattice is not kept and each one is scored alone.
_WALK_CHUNK = 1024


def _columns(F: FieldSpec, k: int, raw: bool) -> List[Tuple[int, ...]]:
    """All q^k vectors in product order (vector 0 first) if raw, else the projective points."""
    return list(product(range(F.q), repeat=k)) if raw else projective_points(F, k)


@lru_cache(maxsize=8)
def _batch(F: FieldSpec, k: int, n: int, raw: bool = False) -> _PrimalBatch:
    """The batched primal reader of n-column candidates over _columns(F, k, raw)."""
    return _PrimalBatch(F, _columns(F, k, raw), k, n)


def _reader(
    F: FieldSpec, k: int, n: int, raw: bool = False
) -> Tuple[List[Tuple[int, ...]], Optional[_PrimalBatch], Callable]:
    """(columns, batch, value) for n-column candidates over _columns(F, k, raw).

    The one place that decides whether the lattice of GF(q)^k is kept: if
    so, batch reads whole chunks (_batch) and value turns its integer keys
    into expectations; if not, batch is None, each candidate goes through
    _score, and its keys are already the values.
    """
    columns = _columns(F, k, raw)
    if not _lattice_kept(F.q, k):
        return columns, None, Fraction
    batch = _batch(F, k, n, raw)
    return columns, batch, batch.value


def _scored_chunks(
    F: FieldSpec, cols: Sequence[Tuple[int, ...]], batch: Optional[_PrimalBatch],
    combos: Iterable[Tuple[int, ...]],
) -> Iterator[Tuple[list, "np.ndarray", "np.ndarray"]]:
    """(chunk, rows, keys) for each chunk of combos, tuples of indices into cols.

    rows lists the chunk's spanning candidates and keys[i] orders candidate
    rows[i]: its integer total from one batched read per chunk where batch
    is given (batch.value reads it back), otherwise its _score value.
    """
    combos = iter(combos)
    while chunk := list(islice(combos, _WALK_CHUNK if batch is None else batch.chunk)):
        if batch is None:
            values = [_score(F, cols, combo) for combo in chunk]
            rows = np.array([i for i, v in enumerate(values) if v is not None], dtype=np.intp)
            yield chunk, rows, np.array([values[i] for i in rows], dtype=object)
        else:
            spans, totals = batch.totals(np.array(chunk, dtype=np.intp))
            rows = np.flatnonzero(spans)
            yield chunk, rows, totals[rows]


def _fold_chunks(F: FieldSpec, reader, combos: Iterable[Tuple[int, ...]]) -> _Fold:
    """Fold of the candidates in combos, chunk by chunk, through a _reader.

    Only the minimum and runner-up keys of a chunk become values.
    """
    cols, batch, value = reader
    fold = _Fold()
    for chunk, rows, keys in _scored_chunks(F, cols, batch, combos):
        part = _Fold()
        part.examined, part.admissible = len(chunk), rows.size
        if rows.size:
            low = keys.min()
            part.best = value(low)
            part.argmins = [chunk[i] for i in rows[keys == low]]
            above = keys[keys > low]
            part.second = value(above.min()) if above.size else None
        fold.merge(part)
    return fold


def _search_partition(task) -> _Fold:
    """Fold every multiset whose smallest point index is `first`, chunk by chunk."""
    F, k, n, first = task
    pts, _, _ = reader = _reader(F, k, n)
    tails = combinations_with_replacement(range(first, len(pts)), n - 1)
    return _fold_chunks(F, reader, ((first,) + tail for tail in tails))


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
    Full mode ignores jobs; it only exists for cross-checking and folds
    every matrix with nonzero columns, each scored on its own columns.
    """
    _check_params(k, n)
    if jobs < 1:
        raise ValueError("jobs must be positive")
    _check_search_budget(F, k, n, mode, budget)
    start = time.perf_counter()
    if mode == "projective":
        fold = _Fold()
        tasks = [(F, k, n, first) for first in range(_gaussian(k, 1, F.q))]
        for part in _fan_out(_search_partition, tasks, jobs):
            fold.merge(part)
    else:
        vectors, _, _ = reader = _reader(F, k, n, raw=True)
        fold = _fold_chunks(F, reader, product(range(1, F.q**k), repeat=n))
        # Only the argmin matrices map to multisets of projective points.
        # Against an empty basis, eliminate just scales a vector to its class.
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


def verify_reduction(F: FieldSpec, k: int, n: int, guard: int = 10**7) -> bool:
    """Check the projective reduction against raw matrix enumeration.

    True iff the expectation values over all rank-k matrices with nonzero
    columns coincide, as a set, with the values over projective candidates,
    the minima agree, and every spanning matrix containing a zero column
    scores strictly worse than the nonzero minimum.
    """
    _check_params(k, n)
    _check_budget(repeat((F.q, 1), k * n), guard, "matrices")
    # Raw matrices are candidates over all q^k vectors in product order, so
    # vector 0 is the zero column. Keys become values once, as sets.
    vectors, raw, raw_value = _reader(F, k, n, raw=True)
    nonzero, zero_col = set(), set()
    for chunk, rows, keys in _scored_chunks(F, vectors, raw, product(range(F.q**k), repeat=n)):
        has_zero = (np.array(chunk, dtype=np.intp)[rows] == 0).any(axis=1)
        nonzero.update(keys[~has_zero].tolist())
        zero_col.update(keys[has_zero].tolist())
    pts, batch, value = _reader(F, k, n)
    projective = set()
    multisets = combinations_with_replacement(range(len(pts)), n)
    for _, _, keys in _scored_chunks(F, pts, batch, multisets):
        projective.update(keys.tolist())
    nonzero_values = {raw_value(key) for key in nonzero}
    if nonzero_values != {value(key) for key in projective}:
        return False
    return not zero_col or raw_value(min(zero_col)) > min(nonzero_values)
