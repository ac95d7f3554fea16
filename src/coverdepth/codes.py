"""Linear code constructions and subset-rank counters.

A LinearCode is a full-rank k x n generator matrix together with its field.
Zero columns and repeated columns are allowed: the random-draw process is
defined for any generator, useless columns just cost extra draws.

The counters at the bottom answer questions of the form "how many size-s
subsets of the column positions have a prescribed rank". The exact engine
in coverage.py reads these counts from a subspace histogram, or counts the
independent subsets level by level where the lattice is not kept (2^16
member vectors), over every field. It runs the full-rank walk here
(information_set_profile) only on unkept primal sides with n - k > k, and
never the independent-subset walk, which stays a public function; the
tests hold the lattice readers and the level count to both walks. Each
walk refuses, with BudgetExceededError, to recurse deeper than half the
recursion limit.
Two observations keep everything in one place:

  * the subcode supported inside a coordinate set T has dimension
    k - rank(columns outside T), by rank-nullity applied to the projection
    that deletes the T coordinates;
  * consequently, counting size-s sets whose complement supports an
    l-dimensional subcode is the same as counting size-s column subsets of
    rank k - l; at l = 0, the information sets (information_set_count).

Brute-force enumeration over all C(n, s) subsets is the reference semantics;
the profile functions below prune the same enumeration and are validated
against the brute force in the tests (up to n = 16).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from math import comb
from typing import Iterable, List, Tuple

from .gf import FieldSpec
from .matrix import (Basis, MatrixGF, columns_of, eliminate, from_columns, kernel_basis, rank,
                     span_basis)


class BudgetExceededError(RuntimeError):
    """The requested enumeration is larger than the configured budget."""


@dataclass
class LinearCode:
    field: FieldSpec
    n: int
    k: int
    generator: MatrixGF

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("code length must be positive")
        if not 0 <= self.k <= self.n:
            raise ValueError(f"dimension {self.k} not in 0..{self.n}")
        g = self.generator
        if (g.rows, g.cols) != (self.k, self.n):
            raise ValueError("generator shape does not match (k, n)")
        if g.field != self.field:
            raise ValueError("generator field does not match")
        if rank(g) != self.k:
            raise ValueError("generator must have full row rank")

    def __repr__(self) -> str:
        return f"[{self.n},{self.k}] code over {self.field!r}"

    @cached_property
    def columns(self) -> Tuple[Tuple[int, ...], ...]:
        """The generator's columns, read once per code; the generator must not change after."""
        return tuple(columns_of(self.generator))


def linear_code(generator: MatrixGF) -> LinearCode:
    """Wrap a full-row-rank generator matrix as a LinearCode."""
    return LinearCode(generator.field, generator.cols, generator.rows, generator)


def projective_points(F: FieldSpec, k: int) -> List[Tuple[int, ...]]:
    """All (q^k - 1)/(q - 1) points of the projective space, as columns.

    Canonical representative: the scalar multiple whose first nonzero
    coordinate is 1. Returned in lexicographic order of the coordinate
    tuples, which is also the enumeration order the search module's
    candidate indices refer to.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    pts = []
    for lead in range(k):
        for tail in product(range(F.q), repeat=k - 1 - lead):
            pts.append((0,) * lead + (1,) + tail)
    pts.sort()
    return pts


def simplex_code(F: FieldSpec, k: int) -> LinearCode:
    """The code whose generator columns are all projective points, once each."""
    if k < 2:
        raise ValueError("simplex construction needs k >= 2")
    gen = from_columns(F, projective_points(F, k))
    return linear_code(gen)


def hamming_code(F: FieldSpec, r: int) -> LinearCode:
    """Dual of the r-dimensional simplex code: an [n, n-r] code."""
    if r < 2:
        raise ValueError("hamming construction needs r >= 2")
    gen = kernel_basis(simplex_code(F, r).generator)
    return linear_code(gen)


def reed_solomon(F: FieldSpec, n: int, k: int) -> LinearCode:
    """Vandermonde code on the first n field elements; MDS by construction.

    For n = q + 1 one extra column (0, ..., 0, 1) extends the evaluation
    points with the point at infinity; every k columns remain independent.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n > F.q + 1:
        raise ValueError(f"need n <= q + 1 = {F.q + 1}, got n = {n}")
    cols = [tuple(F.pow(a, i) for i in range(k)) for a in range(min(n, F.q))]
    if n == F.q + 1:
        cols.append((0,) * (k - 1) + (1,))
    return linear_code(from_columns(F, cols))


def dual(C: LinearCode) -> LinearCode:
    """The [n, n-k] code orthogonal to C under the standard bilinear form."""
    gen = kernel_basis(C.generator)
    return LinearCode(C.field, C.n, C.n - C.k, gen)


def shortened_subcode_dim(C: LinearCode, support: Iterable[int]) -> int:
    """Dimension of {codewords supported inside the given coordinate set}.

    Computed as k minus the rank of the generator columns outside the set.
    Coordinates are 0-based.
    """
    s = set(support)
    for i in s:
        if not 0 <= i < C.n:
            raise ValueError(f"coordinate {i} out of range 0..{C.n - 1}")
    outside = [C.columns[j] for j in range(C.n) if j not in s]
    return C.k - len(span_basis(C.field, outside, cap=C.k))


@dataclass
class SubsetCounter:
    code: LinearCode
    s: int
    value: int

    def __post_init__(self):
        if not 0 <= self.value <= comb(self.code.n, self.s):
            raise ValueError("counter value outside 0..C(n,s)")


def information_set_count(C: LinearCode, s: int) -> SubsetCounter:
    """Number of size-s position subsets whose columns have full rank k.

    shortened_dim_count at dimension 0. Repeated columns occupy distinct
    positions and are counted separately.
    """
    return shortened_dim_count(C, 0, s)


def shortened_dim_count(C: LinearCode, dimension: int, s: int) -> SubsetCounter:
    """Number of size-s position sets whose complement supports a subcode of
    the given dimension.

    Equivalently: size-s column subsets of rank k - dimension, enumerated
    unless that rank exceeds s. Dimensions outside 0..k yield 0 rather than
    an error, which makes the duality identity total at its boundary indices.
    """
    if not 0 <= s <= C.n:
        raise ValueError(f"subset size {s} not in 0..{C.n}")
    target = C.k - dimension
    if not 0 <= dimension <= C.k or target > s:
        return SubsetCounter(C, s, 0)
    F, cols, cap = C.field, C.columns, min(target + 1, C.k)
    count = sum(len(span_basis(F, (cols[j] for j in sub), cap=cap)) == target
                for sub in combinations(range(C.n), s))
    return SubsetCounter(C, s, count)


def information_set_count_via_dual(C: LinearCode, s: int) -> SubsetCounter:
    """The same count as information_set_count, routed through the dual code.

    A size-s set is an information set iff its complement, viewed in the
    dual code, supports a subcode of dimension s - k. Cheaper than the
    primal count when n - k is small.
    """
    if s < C.k:
        raise ValueError(f"need s >= k = {C.k}, got {s}")
    if s > C.n:
        raise ValueError(f"subset size {s} not in 0..{C.n}")
    inner = shortened_dim_count(dual(C), s - C.k, C.n - s)
    return SubsetCounter(C, s, inner.value)


def information_set_profile(C: LinearCode) -> List[int]:
    """counts[s] = number of size-s full-rank position subsets, for all s.

    One pruned walk over the subset tree instead of n separate enumerations.
    Two cuts keep it fast: once the partial selection already spans, every
    completion spans (counted with binomials); once too few columns remain
    to reach rank k, the branch dies. Validated against information_set_count
    in the tests. Past half the recursion limit in columns it raises
    BudgetExceededError, as it recurses once per column.
    """
    F, cols, n, k = C.field, C.columns, C.n, C.k
    if 2 * n > sys.getrecursionlimit():
        raise BudgetExceededError(f"the full-rank walk over {n} columns would recurse too deep")
    counts = [0] * (n + 1)
    basis: Basis = []

    def walk(i: int, taken: int, rnk: int) -> None:
        if rnk == k:
            rest = n - i
            for extra in range(rest + 1):
                counts[taken + extra] += comb(rest, extra)
            return
        if rnk + (n - i) < k:
            return
        walk(i + 1, taken, rnk)
        reduced = eliminate(F, basis, cols[i])
        if reduced is None:
            walk(i + 1, taken + 1, rnk)
        else:
            basis.append(reduced)
            walk(i + 1, taken + 1, rnk + 1)
            basis.pop()

    walk(0, 0, 0)
    return counts


def independent_subset_profile(M: MatrixGF) -> List[int]:
    """counts[t] = number of linearly independent t-subsets of M's columns.

    Walks only the independent prefixes, so the cost is proportional to the
    answer rather than to 2^n. It recurses once per column it stacks, rank(M)
    deep, and raises BudgetExceededError past half the recursion limit.
    """
    F, n = M.field, M.cols
    cols = columns_of(M)
    counts = [0] * (n + 1)
    counts[0] = 1
    basis: Basis = []

    def walk(start: int, size: int) -> None:
        if 2 * size > sys.getrecursionlimit():
            raise BudgetExceededError(f"the independent-subset walk would stack {size} columns")
        for j in range(start, n):
            reduced = eliminate(F, basis, cols[j])
            if reduced is None:
                continue
            counts[size + 1] += 1
            basis.append(reduced)
            walk(j + 1, size + 1)
            basis.pop()

    walk(0, 0)
    return counts
