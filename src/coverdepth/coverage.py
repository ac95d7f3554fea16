"""Expected number of uniform column draws until a code's generator is covered.

The random process draws columns of a generator matrix uniformly with
repetition and stops once the drawn set has full rank k. Everything here
computes the expectation of that stopping time:

  * exactly, from one subspace histogram (subspace_histogram): h[(d, n_U)]
    counts the d-dimensional subspaces U of GF(q)^m by the number n_U of
    given columns inside them. Moebius inversion over the subspace lattice,
    mu(U, W) = (-1)^c q^(c(c-1)/2) with c = dim W - dim U, gives two readers:
      - primal (m = k, generator columns): P(T > t) = -sum_{U < V} mu(U, V)
        (n_U/n)^t, so E = -sum_{d<k} h * mu * n/(n - n_U);
      - dual (m = n - k, parity-check columns): the independent t-subsets
        number I(t) = sum_{d<=t} h * C(n_U, t) * mu * [m-d, t-d]_q, and E is
        the defect sum E = n*H(n) - sum_t I(t) / C(n-1, t-1) (_defect_sum).
    expectation_exact reads the primal side, expectation_exact_dual the dual
    side and expectation_exact_auto the side of smaller dimension m. A side
    reads its lattice iff it is kept (_lattice_kept: at most 2^16 member
    vectors). Nothing is cached between calls: each read tests its distinct
    columns against every subspace (_incidence).
    Where a lattice is not kept, the dual side counts I(t) level by level
    in numpy (_level_counts: one level of independent t-subsets at a time,
    each state the table lanes' basis of its columns, refused with
    BudgetExceededError past _LEVEL_CELLS basis cells); the primal side,
    when n - k <= k, reads the kernel's columns the same way (_dual_terms).
    Only primal sides with n - k > k run a walk, the full-rank walk
    (codes.information_set_profile), which guards its own recursion and
    raises BudgetExceededError past half the recursion limit.
    A search reads the primal side of all its candidates, on every lattice,
    from one tail table (_PrimalBatch), which also decides which of them
    span, so search scores a candidate without a code.
    The simplex (m = k) and Hamming (m = r) closed forms are the primal and
    dual readers on the projective histogram (_projective_histogram);
  * by Monte Carlo simulation with a counter-based generator whose output
    depends only on (seed, trial index, draw index), so estimates are
    reproducible bit for bit under any process count. Trials run as numpy
    lanes in one of three kernels, one draw per round, so the round number
    is every live lane's draw count (_run_lanes). expectation_monte_carlo
    first builds the code's flat table (_flat_table: the row offset of the
    flat each flat of the column matroid moves to with each column), once
    per call, and a draw is one take from it. The build sorts once per block of flats and
    once per level, and keeps binary residuals with k <= 64 as one packed
    word per column. It gives up, before a level is reduced, once the flats
    would outnumber the call's trials or a level's flats times n * k would
    pass _FLAT_CELLS; then binary codes with k <= 64 run packed lanes (a
    column is one 64-bit word, a reduction step one XOR) and every other
    code table lanes (each lane one (k, k) basis). simulate_trial is the
    scalar reference, trial by trial, that only the checks run.
    Every numpy routine here (membership, the level count, the flat build,
    the table lanes) does its GF(q) arithmetic through the field's one
    VecOps (FieldSpec.vec_ops), which serves every field FieldSpec accepts,
    so the engine and the simulation have no field-size regime of their own.
    _draw_count_blocks is the one batch entry and the one place that builds
    a kernel's lane state and step, and every kernel matches simulate_trial
    draw for draw. The trials split into at most one task per process, and
    each task reduces its counts block by block. Worker processes are forked
    (_fan_out), so they read the code and its flat table from the caller's
    memory and only their sums come back by pickle.

All exact values are fractions.Fraction; nothing is rounded until a caller
asks for digits.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from collections import Counter
from dataclasses import asdict, dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, combinations, combinations_with_replacement
from math import comb
from typing import (Callable, Dict, Iterable, Iterator, List, NoReturn, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from .codes import BudgetExceededError, LinearCode, information_set_profile
from .matrix import Basis, MatrixGF, columns_of, eliminate, kernel_basis
from .gf import FieldSpec, VecOps, is_prime_power

Rational = Union[int, Fraction]


class InvariantViolation(RuntimeError):
    """A quantity provably constrained by theory came out the wrong side."""


def to_decimal(value: Rational, digits: int = 50) -> Decimal:
    """Round a rational to the given number of significant digits.

    Half-even rounding, carried out in one exact division so there is no
    double-rounding step in between.
    """
    if digits < 1:
        raise ValueError("digits must be positive")
    value = Fraction(value)
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        return Decimal(value.numerator) / Decimal(value.denominator)


def decimal_str(value: Rational, digits: int = 30) -> str:
    """Plain decimal rendering (no exponent notation) of a rational."""
    return format(to_decimal(value, digits), "f")


def _rational_str(value: Fraction) -> str:
    # Decimal renders integers of any length; str() stops at Python's
    # int-to-str digit limit (4300 digits by default).
    return f"{Decimal(value.numerator):f}/{Decimal(value.denominator):f}"


def _range_recip_sum(lo: int, hi: int) -> Fraction:
    """1/lo + ... + 1/hi, exactly; 0 when hi < lo.

    Binary splitting: the halves are added as plain numerator/denominator
    pairs and the total is reduced once, which is far cheaper than folding
    1/i into one ever-growing, ever-reduced fraction.
    """

    def split(a: int, b: int) -> Tuple[int, int]:
        if a == b:
            return 1, a
        mid = (a + b) // 2
        p1, q1 = split(a, mid)
        p2, q2 = split(mid + 1, b)
        return p1 * q2 + p2 * q1, q1 * q2

    return Fraction(*split(lo, hi)) if lo <= hi else Fraction(0)


@lru_cache(maxsize=64)
def harmonic(n: int) -> Fraction:
    """H(n) = 1 + 1/2 + ... + 1/n, exactly. H(0) = 0.

    One reciprocal sum (_range_recip_sum). The small memo serves the few
    values a caller repeats, such as the n and r of a Hamming grid row.
    """
    if n < 0:
        raise ValueError("harmonic numbers need n >= 0")
    return _range_recip_sum(1, n)


def mds_bound(n: int, k: int) -> Fraction:
    """n*(H(n) - H(n-k)): the smallest expectation any [n, k] code can have.

    Attained exactly by the codes in which every k positions form an
    information set. Only the k reciprocals 1/(n-k+1) + ... + 1/n are
    summed, so the cost follows k and no harmonic number is cached.
    """
    if n < 1:
        raise ValueError("length must be positive")
    if not 0 <= k <= n:
        raise ValueError(f"dimension {k} not in 0..{n}")
    return n * _range_recip_sum(n - k + 1, n)


def _defect_sum(n: int, terms: Iterable[Tuple[int, int]]) -> Fraction:
    """n*H(n) - sum count / C(n-1, t-1) over the (t, count) pairs given.

    count is the number of spanning (n-t)-subsets of the columns, equal to
    the number of independent t-subsets of the dual columns. Pairs with
    count 0 may be left out; the cost is one term per pair, whatever n is.
    """
    total = n * harmonic(n)
    for t, count in terms:
        total -= Fraction(count, comb(n - 1, t - 1))
    return total


def _gaussian(m: int, d: int, q: int) -> int:
    """[m, d]_q: the number of d-dimensional subspaces of GF(q)^m."""
    if not 0 <= d <= m:
        return 0
    num = den = 1
    for i in range(d):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _mobius(c: int, q: int) -> int:
    """mu(U, W) of the subspace lattice when dim W - dim U = c."""
    return (-1) ** c * q ** (c * (c - 1) // 2)


# Each exact call that reads a lattice enumerates every subspace of GF(q)^m,
# so only lattices whose subspaces together have at most _KEPT_MEMBERS vectors
# are read there ("kept"); past GF(179) that is GF(q)^1 alone, up to GF(65521).
# A search reads its lattice once, kept or not (_PrimalBatch).
# Unkept, long codes such as the [121, 5] simplex over GF(3) pass the level
# budget or walk without end, so the limit keeps GF(3)^5 (53,968). Membership reads
# _BLOCK_CELLS cells at a time, and a search's tail table (_PrimalBatch) holds at most as many.
_KEPT_MEMBERS = 1 << 16
_BLOCK_CELLS = 1 << 18


@lru_cache(maxsize=1024)
def _lattice_kept(q: int, m: int) -> bool:
    """Whether the lattice of GF(q)^m is small enough to enumerate on every call that reads it."""
    if q**m > _KEPT_MEMBERS:  # the sum runs only for small q^m
        return False
    return sum(_gaussian(m, d, q) * q**d for d in range(m + 1)) <= _KEPT_MEMBERS


def _membership(F: FieldSpec, m: int, X: "np.ndarray") -> Iterator[Tuple[int, "np.ndarray"]]:
    """Which rows of X (elements of F) lie in each subspace of GF(q)^m, block by block.

    A d-dimensional subspace is taken by its reduced echelon basis: a pivot
    set P and free entries in row i at the non-pivot columns after P[i].
    A vector v lies in it iff v equals sum_i v[P[i]] * row_i, which only
    needs checking at the non-pivot columns. Each block yields (d, member)
    with member[u, j] True iff X[j] lies in the block's u-th subspace; the
    blocks together list every subspace exactly once.
    """
    q, s = F.q, len(X)
    for d in range(m + 1):
        for pivots in combinations(range(m), d):
            rest = [j for j in range(m) if j not in pivots]
            if not pivots or not rest:  # {0} holds the zero vector, GF(q)^m every vector
                yield d, (~X.any(axis=1) if rest else np.ones(s, dtype=bool))[None]
                continue
            ops = F.vec_ops()  # m >= 2: GF(q)^1 is read without building it
            free = [(i, a) for i, p in enumerate(pivots) for a, j in enumerate(rest) if j > p]
            target = X[:, rest]
            total = q ** len(free)
            step = max(1, _BLOCK_CELLS // max(1, s * len(rest)))
            for start in range(0, total, step):
                fill = np.arange(start, min(total, start + step), dtype=np.int64)
                rows = np.zeros((len(fill), d, len(rest)), dtype=ops.dtype)
                for f, (i, a) in enumerate(free):
                    rows[:, i, a] = fill // q**f % q
                span = np.zeros((len(fill), s, len(rest)), dtype=ops.dtype)
                for i, p in enumerate(pivots):
                    span = ops.add(span, ops.mul(X[None, :, p, None], rows[:, i, None, :]))
                yield d, (span == target).all(axis=2)


def _incidence(
    F: FieldSpec, columns: Sequence[Sequence[int]], m: int
) -> Tuple[Tuple[int, ...], "np.ndarray"]:
    """(dims, inc) over the lattice of GF(q)^m: inc[u, j] is True iff column j lies in subspace u.

    dims[u] is the dimension of subspace u; GF(q)^m itself comes last. The
    callers bound subspaces x columns: subspace_histogram reads only kept
    lattices, and a tail table (_PrimalBatch) is bounded by its search's
    budget: the multisets of projective mode, the (q^k - 1)^n matrices of
    full mode or the q^(kn) guard of verify_reduction.
    """
    X = np.array(columns, dtype=np.min_scalar_type(F.q - 1)).reshape(len(columns), m)  # VecOps' dtype
    blocks = list(_membership(F, m, X))
    dims = tuple(d for d, member in blocks for _ in range(len(member)))
    return dims, np.concatenate([member for _, member in blocks])


def subspace_histogram(
    F: FieldSpec, columns: Sequence[Sequence[int]], m: int
) -> Dict[Tuple[int, int], int]:
    """h[(d, n_U)]: how many d-dimensional subspaces U of GF(q)^m hold n_U of the columns.

    Every subspace is counted, from {0} to GF(q)^m itself; zero columns lie
    in every U. Each column has m entries in 0..q-1. Each distinct column is
    tested once and counted with its multiplicity, so the work is bounded by
    the q^m vectors of GF(q)^m whatever the number of columns. Only for
    lattices small enough to keep (_lattice_kept); ValueError otherwise.
    """
    if not _lattice_kept(F.q, m):
        raise ValueError(f"the subspace lattice of GF({F.q})^{m} is too large to keep")
    times = Counter(map(tuple, columns))
    dims, inc = _incidence(F, list(times), m)
    inside = inc.astype(np.int64) @ np.array(list(times.values()), dtype=np.int64)
    return dict(Counter(zip(dims, inside.tolist())))


def _primal_reader(hist: Dict[Tuple[int, int], int], n: int, k: int, q: int) -> Fraction:
    """E = -sum_{d<k} h[(d, n_U)] * mu * n/(n - n_U), with c = k - d, from the m = k histogram.

    The columns must span GF(q)^k, so that no proper subspace holds all n.
    """
    by_den: Dict[int, int] = Counter()
    for (d, inside), count in hist.items():
        if d < k:
            by_den[n - inside] -= count * _mobius(k - d, q) * n
    return sum((Fraction(num, den) for den, num in by_den.items()), Fraction(0))


# A read holds (subspaces, candidates) integer arrays of at most _BATCH_CELLS
# cells; its totals stay int64 while they provably fit.
_BATCH_CELLS = 1 << 14
_INT64_LIMIT = 1 << 63


class _PrimalBatch:
    """The primal reader of every n-column candidate over one list of columns, from one tail table.

    Over the proper subspaces U of GF(q)^k, with L = lcm(1..n), a candidate
    spans iff no n_U equals n, and then E = base + (n/L) * sum_U W[U, n_U]
    with W[U, j] = -mu(k - dim U) * L/(n - j): the primal reader with every
    term over one denominator. A subspace holding none of the columns has
    n_U = 0 in every candidate and adds its -mu to base instead of a row.
    A candidate is a prefix p of n - tail column indices plus a tail t, so
    n_U = c_U(p) + s_U(t); every candidate is a sorted multiset of column
    indices. The table lists every sorted tail in enumeration order with
    its counts s_U(t) and total A(t) = sum_U W[U, s_U(t)]; tail is the
    longest below n whose counts fit in _BLOCK_CELLS cells. A candidate's
    total is A(t) plus W[U, s_U(t) + c_U(p)] - W[U, s_U(t)] over the U that
    p touches, and it spans iff none of those reaches n (an untouched U
    holds at most tail < n columns): one gather over the touched subspaces.
    The totals are int64 while sum |mu| * L < 2^63 bounds them, and Python
    ints otherwise, so minima and ties are decided exactly.
    The lattice is read kept or not: for n >= k its subspaces x columns
    cells number at most 3 times the candidates (2.5 at q = k = n = 2, the
    most over q < 4000 and k <= 6; the ratio falls as n grows), so the
    budget bounds the table: the multisets of projective mode, the q^(kn)
    matrices of verify_reduction or the (q^k - 1)^n of full mode (4 times
    over GF(2)^1).
    """

    def __init__(self, F: FieldSpec, columns: Sequence[Sequence[int]], k: int, n: int):
        dims, inc = _incidence(F, columns, k)
        dims, inc = dims[:-1], inc[:-1]  # the proper subspaces: GF(q)^k itself comes last
        used = np.flatnonzero(inc.any(axis=1))
        mu = [-_mobius(k - d, F.q) for d in dims]
        self.n, self.width = n, len(columns)
        self.base = sum(mu) - sum(mu[u] for u in used)
        self.lcm = math.lcm(*range(1, n + 1)) if used.size else 1
        exact = np.int64 if sum(abs(mu[u]) for u in used) * self.lcm < _INT64_LIMIT else object
        self.weights = np.array([mu[u] * self.lcm // (n - j) if j < n else 0
                                 for u in used for j in range(n + 1)], dtype=exact)
        self.incidence = inc[used].astype(np.int8 if n < 1 << 7 else np.int64)
        self.tail = next((t for t in range(n - 1, 0, -1)
                          if self._run(0, t) * max(1, used.size) <= _BLOCK_CELLS), 0)
        count, t = self._run(0, self.tail), self.tail
        tuples = combinations_with_replacement(range(self.width), t)
        self.tails = np.fromiter(chain.from_iterable(tuples), dtype=np.min_scalar_type(self.width),
                                 count=count * t).reshape(count, t)
        self.counts = np.zeros((used.size, count), dtype=self.incidence.dtype)
        for j in range(t):
            self.counts += self.incidence[:, self.tails[:, j]]
        offsets = np.arange(used.size)[:, None] * (n + 1)
        step = max(1, _BATCH_CELLS // max(1, used.size))
        self.totals = np.concatenate([self.weights.take(self.counts[:, i:i + step] + offsets).sum(axis=0)
                                      for i in range(0, count, step)])
        self.slots = offsets + np.arange(t + 1)  # where W[U, 0..tail] lies, by subspace
        self.delta_rows = np.arange(used.size)[:, None] * (t + 1)

    def _run(self, first: int, t: int) -> int:
        """How many sorted t-point tails hold only indices >= first."""
        return comb(self.width - first + t - 1, t)

    def read(self, prefix: Tuple[int, ...]) -> Iterator[tuple]:
        """(prefix, tails, rows, keys) chunks of the candidates prefix + tails[i], in enumeration order.

        The tails are the sorted ones from prefix[-1] on, a contiguous run
        of the table. rows lists a chunk's spanning candidates and keys
        their totals, which value reads back.
        """
        touched = self.incidence[:, prefix].sum(axis=1)
        hit = touched.nonzero()[0]
        inside = touched[hit, None]
        slots = self.slots[hit]
        delta = (self.weights.take(slots + inside) - self.weights.take(slots)).ravel()
        at = self.delta_rows[:hit.size]
        full = None  # only a subspace the prefix fills to within tail columns can hold all n
        if inside.max(initial=0) >= self.n - self.tail:
            full = (self.n - inside).astype(self.counts.dtype)
        step = max(1, _BATCH_CELLS // max(1, hit.size))
        end = len(self.tails)
        for lo in range(end - self._run(prefix[-1], self.tail), end, step):
            counts = self.counts[hit, lo:lo + step]
            keys = self.totals[lo:lo + step] + delta.take(counts + at).sum(axis=0)
            rows = np.arange(len(keys)) if full is None else (~(counts == full).any(axis=0)).nonzero()[0]
            yield prefix, self.tails[lo:lo + step], rows, keys[rows]

    def value(self, total) -> Fraction:
        return self.base + Fraction(self.n * int(total), self.lcm)


def _dual_reader(hist: Dict[Tuple[int, int], int], m: int, q: int) -> List[Tuple[int, int]]:
    """(t, I(t)) for t = 1..m: the independent t-subsets of the histogram's columns.

    Moebius inversion of "t-subsets inside U": I(t) = sum_{d<=t} h[(d, n_U)]
    * C(n_U, t) * mu * [m-d, t-d]_q, with c = t - d.
    """
    return [
        (t, sum(count * comb(inside, t) * _mobius(t - d, q) * _gaussian(m - d, t - d, q)
                for (d, inside), count in hist.items() if d <= t <= inside))
        for t in range(1, m + 1)
    ]


def _dual_terms(H: MatrixGF) -> List[Tuple[int, int]]:
    """(t, I(t)) for t = 1..m over the columns of the m x n matrix H.

    The dual reader where the lattice of GF(q)^m is kept, else the level
    count (_level_counts), which refuses past _LEVEL_CELLS basis cells
    (BudgetExceededError). Both serve every field.
    """
    F, m = H.field, H.rows
    if m == 0:  # a code of length n = k: no dual terms
        return []
    if _lattice_kept(F.q, m):
        return _dual_reader(subspace_histogram(F, columns_of(H), m), m, F.q)
    counts = _level_counts(F, columns_of(H), m)
    return [(t, counts[t]) for t in range(1, m + 1)]


def expectation_exact(C: LinearCode) -> Fraction:
    """Exact expectation from the primal side (m = k).

    The primal reader where the lattice of GF(q)^k is kept, else the
    kernel's columns (_dual_terms) when n - k <= k, else the full-rank walk
    (information_set_profile), which may refuse (BudgetExceededError).
    """
    n, k, q = C.n, C.k, C.field.q
    if _lattice_kept(q, k):
        return _primal_reader(subspace_histogram(C.field, C.columns, k), n, k, q)
    if n - k <= k:
        return _defect_sum(n, _dual_terms(kernel_basis(C.generator)))
    counts = information_set_profile(C)
    return _defect_sum(n, ((n - s, counts[s]) for s in range(k, n)))


def expectation_exact_dual(C: LinearCode) -> Fraction:
    """Exact expectation from the dual side (m = n - k).

    Size-s full-rank subsets of C correspond to independent (n-s)-subsets
    of the dual columns, so the defect sum runs over t = n-s = 1..n-k; the
    counts come from the dual columns (_dual_terms). Preferable when
    n - k < k.
    """
    return _defect_sum(C.n, _dual_terms(kernel_basis(C.generator)))


def expectation_exact_auto(C: LinearCode) -> Fraction:
    """Exact expectation, routed through whichever side has lower dimension."""
    if C.n - C.k < C.k:
        return expectation_exact_dual(C)
    return expectation_exact(C)


def _projective_histogram(q: int, m: int) -> Dict[Tuple[int, int], int]:
    """subspace_histogram of the [m]_q projective points of GF(q)^m, without enumerating it.

    A d-dimensional subspace holds [d]_q = (q^d - 1)/(q - 1) of the points,
    so h[(d, [d]_q)] = [m, d]_q (Wei's support weight view of the simplex code).
    """
    return {(d, _gaussian(d, 1, q)): _gaussian(m, d, q) for d in range(m + 1)}


def expectation_simplex(q: int, k: int) -> Fraction:
    """Closed form for the k-dimensional simplex code over GF(q).

    E = k + sum_{i=1}^{k} (q^(i-1) - 1) / (q^k - q^(i-1)), read by the
    primal reader on the projective histogram (_projective_histogram).
    """
    if not is_prime_power(q):
        raise ValueError(f"{q} is not a prime power")
    if k < 1:
        raise ValueError("k must be at least 1")
    return _primal_reader(_projective_histogram(q, k), _gaussian(k, 1, q), k, q)


def expectation_hamming(q: int, r: int) -> Fraction:
    """Closed form for the Hamming code with redundancy r over GF(q).

    The dual-side sum has only r terms: the number of independent
    t-subsets of all projective points is prod_{i<t} (q^r - q^i)/(q-1)
    divided by t!, read by the dual reader on the projective histogram.
    """
    if not is_prime_power(q):
        raise ValueError(f"{q} is not a prime power")
    if r < 2:
        raise ValueError("redundancy must be at least 2")
    return _defect_sum(_gaussian(r, 1, q), _dual_reader(_projective_histogram(q, r), r, q))


# Counter-based randomness built on the splitmix64 finalizer. A draw is a
# pure function of (seed, trial, draw counter, rejection attempt), so the
# stream never depends on how trials are chunked across processes.

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def _mix64(x: int) -> int:
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MIX_A) & _MASK64
    x ^= x >> 27
    x = (x * _MIX_B) & _MASK64
    x ^= x >> 31
    return x


def _trial_key(seed: int, trial: int) -> int:
    return _mix64((_mix64(seed) + trial * _GOLDEN) & _MASK64)


def _mix64_np(x: "np.ndarray", scratch: Optional["np.ndarray"] = None) -> "np.ndarray":
    """_mix64 of every entry of the uint64 array x, written over x; returns x.

    scratch, a uint64 array of x's shape, holds the shifted copies (new
    arrays where it is None). Callers use the returned array.
    """
    with np.errstate(over="ignore"):
        x ^= np.right_shift(x, np.uint64(30), out=scratch)
        x *= np.uint64(_MIX_A)
        x ^= np.right_shift(x, np.uint64(27), out=scratch)
        x *= np.uint64(_MIX_B)
        x ^= np.right_shift(x, np.uint64(31), out=scratch)
    return x


def simulate_trial(C: LinearCode, seed: int, trial: int = 0, trace: Optional[List[int]] = None) -> int:
    """Number of draws one simulated trial needs. Pure in (seed, trial).

    The scalar reference that every lane kernel is held to, draw for draw.
    Grows an echelon basis of the drawn columns; only whether each draw is
    independent matters, so the count is the same whatever basis form is
    kept. Uniformity over column indices comes from 64-bit rejection
    sampling, with the attempt number folded into the counter so retries
    stay deterministic. Each drawn index is appended to trace, if given.
    """
    F, cols, n, k, key = C.field, C.columns, C.n, C.k, _trial_key(seed, trial)
    rem = (1 << 64) % n
    thresh = (1 << 64) - rem
    basis: Basis = []
    draws = 0
    while len(basis) < k:
        attempt = 0
        val = _mix64((key + (draws << 20)) & _MASK64)
        while rem and val >= thresh:
            attempt += 1
            val = _mix64((key + ((draws << 20) | attempt)) & _MASK64)
        j = val % n
        draws += 1
        if trace is not None:
            trace.append(j)
        reduced = eliminate(F, basis, cols[j])
        if reduced is not None:
            basis.append(reduced)
    return draws


# Vector lanes: a block of trials advances one draw per round, each lane
# with its own state for the columns drawn so far, so the round number is
# every live lane's draw count. The driver (_run_lanes) owns the keys, the
# rejection sampling, the round counter and the retiring, so the flat,
# packed and table kernels read the same random stream; _draw_count_blocks
# builds each kernel's state and step, and nothing else differs. The lanes
# match simulate_trial draw for draw (the tests hold them equal). A block
# holds at most _LANE_CELLS state cells, so memory stays bounded whatever k
# is; trials are keyed by index, so blocking changes no count. The driver
# allocates its lane arrays once per call and reuses them round after round
# and block after block: a round writes its keys, draws and moves into them
# instead of into new arrays.
# The level count reduces its children with the table lanes' step
# (_reduce_insert), _REDUCE_BLOCK_CELLS basis cells at a time, and refuses a
# level whose children would hold more than _LEVEL_CELLS basis cells. The
# flat build (_flat_table) reduces its flats in blocks of the same cells.
# A cell is one VecOps.dtype element, 4 bytes past 2^16 elements (8 for a packed
# lane's word): at most 16 MB of table-lane state a block, 128 MB of bases at the level cap.
_LANE_CELLS = 1 << 22
_LEVEL_CELLS = 1 << 25
_REDUCE_BLOCK_CELLS = 1 << 16


def _reduce_insert(basis: "np.ndarray", v: "np.ndarray", ops: VecOps) -> "np.ndarray":
    """Reduce row i of v against basis i, insert it where it is independent; say which grew.

    Slot r of a (k, k) basis is filled iff its diagonal entry is nonzero:
    a filled slot holds a row with a 1 at r and zeros before it, an empty
    one zeros. v and basis hold elements of the field of ops and change in
    place.
    """
    grew = np.zeros(len(v), dtype=bool)
    for r in range(v.shape[1]):
        nz = v[:, r] != 0
        slot = basis[:, r, r] != 0
        (sel,) = (nz & slot).nonzero()
        if sel.size:
            v[sel] = ops.sub(v[sel], ops.mul(v[sel, r, None], basis[sel, r, :]))
        (sel,) = (nz & ~slot).nonzero()
        if sel.size:
            basis[sel, r, :] = ops.mul(ops.inv(v[sel, r, None]), v[sel])
            grew[sel] = True
            v[sel] = 0
    return grew


def _level_counts(F: FieldSpec, columns: Sequence[Sequence[int]], m: int) -> List[int]:
    """I(0..m): how many t-subsets of the columns, each in GF(q)^m, are independent.

    Level t holds one state per independent t-subset: the index of its last
    column and the reduced basis of its columns (_reduce_insert's slots).
    Level t + 1 reduces every later column against a copy of each state's
    basis, block by block, and keeps the children that grew; the last level
    is only counted. Before a level is reduced its children are counted,
    and past _LEVEL_CELLS basis cells the count raises BudgetExceededError.
    """
    n, ops = len(columns), F.vec_ops()
    cols = np.array(columns, dtype=ops.dtype).reshape(n, m)
    last = np.full(1, -1, dtype=np.int32)
    basis = np.zeros((1, m, m), dtype=ops.dtype)
    block = max(1, _REDUCE_BLOCK_CELLS // max(1, m * m))
    counts = [1]
    for t in range(1, m + 1):
        ends = np.cumsum(n - 1 - last, dtype=np.int64)  # state s's children end at ends[s]
        total = int(ends[-1]) if ends.size else 0
        if total * m * m > _LEVEL_CELLS:
            raise BudgetExceededError(f"more than {_LEVEL_CELLS} basis cells in the "
                                      f"independent {t}-subsets of {n} columns")
        keep = t < m
        if keep:  # untouched rows of np.empty take no memory
            next_last = np.empty(total, dtype=np.int32)
            next_basis = np.empty((total, m, m), dtype=ops.dtype)
        size = 0
        for start in range(0, total, block):
            child = np.arange(start, min(total, start + block), dtype=np.int64)
            parent = np.searchsorted(ends, child, side="right")
            col = child - ends[parent] + n
            b = basis[parent]
            grew = _reduce_insert(b, cols[col], ops)
            c = int(np.count_nonzero(grew))
            if keep and c:
                next_last[size:size + c] = col[grew]
                next_basis[size:size + c] = b[grew]
            size += c
        counts.append(size)
        if keep:
            last, basis = next_last[:size], next_basis[:size]
    return counts


def _run_lanes(
    n: int,
    seed: int,
    t0: int,
    count: int,
    state: "np.ndarray",
    advance: Callable[["np.ndarray", "np.ndarray", "np.ndarray"], "np.ndarray"],
) -> Iterator["np.ndarray"]:
    """Draw counts of trials t0 .. t0 + count - 1, one int64 array per block of len(state) trials.

    state holds the lanes' states, one lane per index of the first axis,
    as _draw_count_blocks builds them. Every array a block uses is
    allocated once here and reused by the next block, the yielded counts
    included: read them before asking for the next block.
    advance(state, col, done) adds each lane's drawn column (an int64 index
    in 0..n-1, which it may overwrite) to its state, writes into the bool
    array done which lanes now span all k dimensions, and returns done. Every live lane draws once
    a round, so the round number is each lane's draw index: round r draws
    at counter r << 20 (retries at (r << 20) | attempt), and a lane done in
    round r leaves every array with the draw count r + 1.
    """
    size = len(state)
    keys_buf, val_buf, scratch = (np.empty(size, dtype=np.uint64) for _ in range(3))
    out = np.empty(size, dtype=np.int64)
    order, lane_buf = np.arange(size, dtype=np.int32), np.empty(size, dtype=np.int32)
    finished_buf = np.empty(size, dtype=bool)
    start = np.uint64(_mix64(seed))
    last = np.uint64(_MASK64 - (1 << 64) % n)  # larger values are rejected
    modulus = np.uint64(n)
    for t in range(t0, t0 + count, size):
        live = block = min(size, t0 + count - t)
        keys = keys_buf[:block]
        keys[:] = order[:block]
        with np.errstate(over="ignore"):
            keys += np.uint64(t)
            keys *= np.uint64(_GOLDEN)
            keys += start
        keys = _mix64_np(keys, scratch[:block])
        lane, lanes = lane_buf[:block], state[:block]
        lane[:] = order[:block]
        lanes.fill(0)
        draws = 0
        while live:
            ctr = draws << 20
            with np.errstate(over="ignore"):
                val = _mix64_np(np.add(keys, np.uint64(ctr), out=val_buf[:live]), scratch[:live])
            attempt = 0
            while val.max() > last:
                attempt += 1
                bad = np.flatnonzero(val > last)
                with np.errstate(over="ignore"):
                    val[bad] = _mix64_np(keys[bad] + np.uint64(ctr | attempt))
            draws += 1
            # val % n in place: unsigned division by a scalar is much faster
            # in numpy than the remainder.
            val -= np.multiply(np.floor_divide(val, modulus, out=scratch[:live]), modulus, out=scratch[:live])
            finished = advance(lanes, val.view(np.int64), finished_buf[:live])
            done = np.flatnonzero(finished)
            if done.size:
                # Retire: the live lanes past the new end fill the holes the
                # finished ones leave below it, so a round moves only as many
                # lanes as finish in it.
                out[lane[done]] = draws
                live -= done.size
                holes = done[done < live]
                movers = live + np.flatnonzero(~finished[live:])
                for a in (keys, lane, lanes):
                    a[holes] = a[movers]
                keys, lane, lanes = (a[:live] for a in (keys, lane, lanes))
        yield out[:block]


# The flat table. The span of a lane's drawn columns is a flat of the column
# matroid, so a draw only moves the lane from its flat to the flat the drawn
# column closes it to. _flat_table numbers the flats level by level (rank 0
# first, the top flat last) and tabulates that move as row offsets; its
# build reads each level's flats _REDUCE_BLOCK_CELLS // (n * k) at a time and
# stops, before a level is reduced, once the flats would outnumber the
# trials they serve or the level's flats times n * k would pass _FLAT_CELLS.
# A rank-r flat's residuals hold only n * (k - r) cells (n words when
# packed), so n * k per flat bounds them at every level: at 4 bytes an
# element past 2^16 elements, 16 MB of residuals per level.
_FLAT_CELLS = 1 << 22


def _packed_keys(parts: Sequence["np.ndarray"], bits: Sequence[int]) -> "np.ndarray":
    """(N, W) uint64 keys: the rows of the parts, part i below 2^bits[i], packed whole into words.

    Equal rows give equal keys and distinct rows distinct keys, for any
    number of parts.
    """
    words, used = [], 64
    for part, b in zip(parts, bits):
        if used + b > 64:
            words.append(np.zeros(len(part), dtype=np.uint64))
            used = 0
        words[-1] |= part.astype(np.uint64) << np.uint64(used)
        used += b
    return np.stack(words, axis=1)


def _runs(keys: "np.ndarray") -> Tuple["np.ndarray", "np.ndarray"]:
    """(order, new): the rows of (N, W) uint64 keys in sorted order, and which sorted rows start a run.

    Rows sort lexicographically, column 0 first, by one argsort of a
    single column or one lexsort of several; new[i] says that sorted row i
    differs from row i - 1, so the runs are the groups of equal rows.
    """
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    if keys.shape[1] == 1:
        order = keys[:, 0].argsort()
        rows = keys[order, 0]
        np.not_equal(rows[1:], rows[:-1], out=new[1:])
    else:
        order = np.lexsort(keys.T[::-1])
        rows = keys[order]
        np.any(rows[1:] != rows[:-1], axis=1, out=new[1:])
    return order, new


def _normalised(v: "np.ndarray", ops: VecOps) -> Tuple["np.ndarray", "np.ndarray"]:
    """(w, lead): each nonzero row of the 2-D v over its first nonzero entry, whose index is lead."""
    lead = (v != 0).argmax(axis=1)
    if ops.q == 2:  # GF(2): every first nonzero entry is already 1
        return v, lead
    return ops.mul(ops.inv(v[np.arange(len(v)), lead])[:, None], v), lead


def _flat_children(resid: "np.ndarray", parent: "np.ndarray", col: "np.ndarray", ops: VecOps) -> "np.ndarray":
    """Residuals of the flats spanned by each parent flat and one column outside it, one coordinate shorter.

    Child c takes parent[c]'s residuals and eliminates, from each, its entry
    at the pivot of column col[c]'s residual (its first nonzero entry), so
    the projection's kernel grows by that column. That entry is then zero
    in every column, so the child drops it. Residuals of field elements,
    (count, n, w), move their last coordinate into its place; packed binary
    residuals, (count, n) unsigned words with coordinate i at bit i, shift
    the bits above it down by one.
    """
    count, n = len(parent), resid.shape[1]
    out = np.empty((count, n) if resid.ndim == 2 else (count, n, resid.shape[2] - 1), dtype=resid.dtype)
    block = max(1, _REDUCE_BLOCK_CELLS // resid[0].size)
    for c0 in range(0, count, block):
        r = resid[parent[c0:c0 + block]]
        each = np.arange(len(r))
        v = r[each, col[c0:c0 + block]]
        if resid.ndim == 2:
            v = v[:, None]
            pivot = v & (~v + 1)
            r ^= v * ((r & pivot) != 0)
            below = pivot - 1
            np.bitwise_or(r & below, (r >> 1) & ~below, out=out[c0:c0 + block])
            continue
        v, lead = _normalised(v, ops)
        coef = r[each, :, lead]
        r[each, :, lead] = r[:, :, -1]
        v[each, lead] = v[:, -1]
        ops.sub(r[:, :, :-1], ops.mul(coef[:, :, None], v[:, None, :-1]), out=out[c0:c0 + block])
    return out


def _flat_table(F: FieldSpec, cols: Sequence[Tuple[int, ...]], k: int, limit: int) -> Optional["np.ndarray"]:
    """T[f, j] * n: the row offset of the flat f and column j span; None past a cap.

    The n columns, each of length k, must span GF(q)^k, as a code's do.
    The table is int32, one row per flat, and holds row offsets, so a lane
    reads its next row offset from the raveled table at its row offset
    plus the drawn column.

    Flats are numbered level by level: 0 is the flat of the zero columns,
    the last one holds every column, and each level's flats are ordered by
    their column sets, one bit per column. Each flat of rank r < k - 1
    keeps its residuals: the columns under a linear projection whose kernel
    is the flat's span, k - r coordinates each (over GF(2) with k <= 64,
    one unsigned word per column, coordinate i at bit i; otherwise an
    (n, k - r) array of field elements). Column j lies in f iff its
    residual is zero, and then T[f, j] = f. The nonzero residuals of f fall
    into classes of proportional ones (equal after normalising; a packed
    word is its own class key), and each class adds its columns to f's
    column set to make one child. A block of flats sorts its (flat,
    residual) keys once, and a level sorts its children's column sets
    once: children reached from several parents are merged by that set and
    take their residuals from one representative parent (_flat_children).
    A rank k - 1 flat needs no residuals: every column outside it closes it
    to the top flat. Before a level is reduced, the build returns None once
    the flats would number more than limit or the level's flats times
    n * k more than _FLAT_CELLS.
    """
    n, q = len(cols), F.q
    if k < 1 or n * k > _FLAT_CELLS:
        return None
    ops, ebits, packed = F.vec_ops(), (q - 1).bit_length(), q == 2 and k <= 64
    words = (n + 63) // 64
    bit = np.zeros((n, words), dtype=np.uint64)
    bit[np.arange(n), np.arange(n) // 64] = np.uint64(1) << (np.arange(n, dtype=np.uint64) % np.uint64(64))
    if packed:  # the narrowest unsigned words that hold k bits
        resid = np.array([[sum(x << i for i, x in enumerate(col)) for col in cols]],
                         dtype=np.min_scalar_type((1 << k) - 1))
    else:
        resid = np.array(cols, dtype=ops.dtype).reshape(1, n, k)
    masks = np.bitwise_or.reduce(bit[~resid[0].reshape(n, -1).any(axis=1)], axis=0)[None]
    # The table grows level by level in place (a resize reallocates it), so
    # its rows are never held twice. A level's rows first index its offsets:
    # f's own local number where column j lies in f, count plus the class of
    # (f, j) where it does not.
    table, size = np.empty((0, n), dtype=np.int32), 1
    block = max(1, _REDUCE_BLOCK_CELLS // (n * k))
    pbits = max(1, (block - 1).bit_length())
    for r in range(k - 1):
        count = len(masks)
        table.resize((size, n), refcheck=False)
        rows = table[size - count:]
        rows[:] = np.arange(count, dtype=np.int32)[:, None]
        classes, found = [], count
        for p0 in range(0, count, block):
            sub = resid[p0:p0 + block]
            sub = sub.reshape(len(sub) * n, -1)  # row f * n + j: the residual of column j in flat p0 + f
            outside = sub[:, 0].copy()
            for i in range(1, sub.shape[1]):
                outside |= sub[:, i]
            pair = np.flatnonzero(outside)
            v = sub[pair] if packed else _normalised(sub[pair], ops)[0]
            widths = [k - r] if packed else [ebits] * (k - r)
            order, new = _runs(_packed_keys([pair // n, *v.T], [pbits, *widths]))
            pair = pair[order]
            rows.reshape(-1)[p0 * n + pair] = np.cumsum(new, dtype=np.int32) + (found - 1)
            (start,) = new.nonzero()
            rep = pair[start]
            m = masks[p0 + rep // n] | np.bitwise_or.reduceat(bit[pair % n], start, axis=0)
            classes.append((m, (p0 * n + rep).astype(np.int32)))
            found += len(start)
        class_masks, reps = (np.concatenate(a) for a in zip(*classes))
        del classes
        order, new = _runs(class_masks)
        first = order[new]
        if size + len(first) > limit or len(first) * n * k > _FLAT_CELLS:
            return None
        masks, reps = class_masks[first], reps[first]
        del class_masks, first
        offset = np.empty(count + len(order), dtype=np.int32)  # by flat, then by class
        offset[:count] = np.arange(size - count, size, dtype=np.int32) * n
        ids = np.cumsum(new, dtype=np.int32)
        ids += size - 1
        ids *= n
        offset[count:][order] = ids
        del order, new, ids
        for p0 in range(0, count, block):
            offset.take(rows[p0:p0 + block], out=rows[p0:p0 + block], mode="clip")
        del offset, rows
        if r + 2 < k:
            resid = _flat_children(resid, reps // n, reps % n, ops)
        size += len(masks)
    del resid
    # The hyperplanes' rows: the flat itself where its mask holds the
    # column, the top flat elsewhere.
    if size + 1 > limit:
        return None
    count = len(masks)
    table.resize((size + 1, n), refcheck=False)
    rows = table[size - count:]
    rows.fill(size * n)
    inside = np.unpackbits(masks.astype("<u8", copy=False).view(np.uint8), axis=1, count=n, bitorder="little")
    own = np.arange(size - count, size, dtype=np.int32) * n
    np.copyto(rows[:-1], own[:, None], where=inside.view(bool))
    return table


def _draw_count_blocks(
    F: FieldSpec,
    cols: Sequence[Tuple[int, ...]],
    seed: int,
    t0: int,
    count: int,
    table: Optional["np.ndarray"],
    block: int,
) -> Iterator["np.ndarray"]:
    """Draw counts of trials t0 .. t0 + count - 1, in int64 arrays of at most block trials.

    The only batch entry. Given the code's flat table, the flat lanes run:
    expectation_monte_carlo passes one wherever _flat_table builds it, that
    is while the flats number at most the call's trials and no level's
    flats times n * k pass _FLAT_CELLS. Without one, binary codes with
    k <= 64 run the packed lanes and every other code the table lanes on
    the field's VecOps. A code with k < 1 needs no draws and yields zeros.
    The chosen branch builds its lane state and its step once per call, and
    _run_lanes runs them on blocks of at most _LANE_CELLS state cells,
    reusing one set of lane arrays: a yielded array is overwritten by the
    next block. Trial t draws what simulate_trial(C, seed, t) draws
    whichever kernel runs (the tests hold them equal).
    """
    n, k = len(cols), len(cols[0])
    if k < 1:  # the empty set spans GF(q)^0: no trial draws
        for t in range(t0, t0 + count, block):
            yield np.zeros(min(block, t0 + count - t), dtype=np.int64)
        return

    def lanes(*shape: int, dtype) -> "np.ndarray":
        """The zeroed states of one block's lanes, each of the given shape."""
        return np.zeros((max(1, min(block, count, _LANE_CELLS // math.prod(shape))), *shape), dtype)

    if table is not None:
        # Flat lanes: a lane's one state is its flat's row offset in the
        # table, a draw one take from the raveled table at that offset plus
        # the column, and a lane is done at the top flat, the last row.
        state = lanes(dtype=table.dtype)
        moves, top = table.reshape(-1), table[-1, 0]

        def advance(row, col, done):
            moves.take(np.add(row, col, out=col), out=row, mode="clip")
            return np.equal(row, top, out=done)

    elif F.q == 2 and k <= 64:
        # Packed lanes: a column is one uint64 word, bit i its i-th entry.
        # Slot b of a lane's basis holds 0 or a word whose lowest set bit is
        # b, so a draw reduces in k steps v ^= slot_b * bit_b(v) and a
        # nonzero residual goes into the slot of its lowest set bit.
        state = lanes(k, dtype=np.uint64)
        words = np.array([sum(x << i for i, x in enumerate(col)) for col in cols], dtype=np.uint64)
        one = np.uint64(1)

        def advance(slots, col, done):
            v = words[col]
            for b in range(k):
                v ^= slots[:, b] * (v >> np.uint64(b) & one)
            grew = np.flatnonzero(v)
            if grew.size:
                r = v[grew]
                low = np.frexp((r & (~r + one)).astype(np.float64))[1] - 1  # exact: a power of two
                slots[grew, low] = r
            return np.all(slots, axis=1, out=done)

    else:
        # Table lanes over the field's vector arithmetic: a lane holds only a
        # (k, k) basis, grown by _reduce_insert, whose nonzero diagonal
        # marks the filled slots.
        ops = F.vec_ops()
        state = lanes(k, k, dtype=ops.dtype)
        cols_arr = np.array(cols, dtype=ops.dtype)

        def advance(basis, col, done):
            _reduce_insert(basis, cols_arr[col], ops)
            return np.all(np.diagonal(basis, axis1=1, axis2=2), axis=1, out=done)

    yield from _run_lanes(n, seed, t0, count, state, advance)


def _draw_count_array(
    F: FieldSpec,
    cols: Sequence[Tuple[int, ...]],
    seed: int,
    t0: int,
    count: int,
    table: Optional["np.ndarray"] = None,
) -> "np.ndarray":
    """Draw counts of trials t0 .. t0 + count - 1 as one int64 array (see _draw_count_blocks)."""
    blocks = _draw_count_blocks(F, cols, seed, t0, count, table, max(1, count))
    return np.concatenate([b.copy() for b in blocks] or [np.zeros(0, np.int64)])


def _share(fn: Callable, tasks: Sequence) -> list:
    return [fn(t) for t in tasks]


def _fan_out(fn: Callable, tasks: Sequence, jobs: int) -> list:
    """fn over tasks, results in task order.

    The tasks split into j = min(jobs, len(tasks)) shares tasks[i::j]: this
    process runs share 0 while j - 1 forked children run the others, so
    jobs counts the caller. Tasks reach a child through fork, so it reads
    the caller's memory (tables and caches included) and nothing is
    pickled on the way in; each child pickles (ok, result or exception)
    into its own pipe and leaves by os._exit, running no atexit hook and
    flushing no stdio buffer it inherited. Every child is reaped before
    this returns or raises: a child's exception is raised here with its
    type, a child that leaves no result raises RuntimeError with its exit
    status, and if this process's own share raises, the children are
    killed first.
    """
    j = min(jobs, len(tasks))
    if j <= 1:
        return _share(fn, tasks)
    children = []  # (pid, read end of its pipe)
    results = []
    try:
        for i in range(1, j):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _run_child(fn, tasks[i::j], w)
            os.close(w)
            children.append((pid, r))
        out = [None] * len(tasks)
        out[0::j] = _share(fn, tasks[0::j])
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, r in children:
            with os.fdopen(r, "rb") as pipe:
                data = pipe.read()
            results.append((pid, data, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])))
    for i, (pid, data, status) in enumerate(results, 1):
        if status or not data:
            raise RuntimeError(f"worker process {pid} left no result (exit status {status})")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        out[i::j] = value
    return out


def _run_child(fn: Callable, tasks: Sequence, w: int) -> NoReturn:
    """A forked child's whole life: run its share, write it to fd w, _exit."""
    status = 1
    try:
        try:
            data = pickle.dumps((True, _share(fn, tasks)))
        except BaseException as exc:
            data = pickle.dumps((False, exc))
        with os.fdopen(w, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _mc_task(F: FieldSpec, cols: Sequence[Tuple[int, ...]], seed: int, table: Optional["np.ndarray"],
             task: Tuple[int, int]) -> Tuple[int, int, int, int]:
    """(sum, sum of squares, min, max) of the draw counts of the trials task = (t0, count).

    The trials run in blocks of at most _CHUNK lanes, each reduced before
    the next is drawn.
    """
    t0, count = task
    total = total_sq = 0
    low, high = math.inf, 0
    for counts in _draw_count_blocks(F, cols, seed, t0, count, table, _CHUNK):
        top = int(counts.max())
        if len(counts) * top * top < 1 << 63:  # the int64 sum of squares cannot overflow
            total_sq += int(np.dot(counts, counts))
        else:
            total_sq += sum(c * c for c in counts.tolist())
        total += int(counts.sum())
        low, high = min(low, int(counts.min())), max(high, top)
    return total, total_sq, low, high


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo summary. mean = total draws / trials, error = s / sqrt(N)."""

    mean: float
    std_error: float
    trials: int
    seed: int
    min_draws: int
    max_draws: int

    def as_dict(self) -> dict:
        return asdict(self)


_CHUNK = 1 << 15


def expectation_monte_carlo(C: LinearCode, trials: int, seed: int, jobs: int = 1) -> McEstimate:
    """Estimate the expected draw count from `trials` independent trials.

    Trials are keyed by their index, so the estimate for a given
    (code, trials, seed) is identical for every value of jobs. The trials
    are split, on _CHUNK boundaries, into min(jobs, ceil(trials / _CHUNK))
    contiguous tasks, one per process (this one runs the first), so the
    code's flat table, where it builds within its caps, is built once here
    and each forked worker reads it from this process's memory, unpickled.
    With a single trial the standard error is reported as 0.0.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    F, cols = C.field, C.columns
    table = _flat_table(F, cols, C.k, trials)
    chunks = -(-trials // _CHUNK)
    split = min(jobs, chunks)
    ends = [min(trials, chunks * i // split * _CHUNK) for i in range(split + 1)]
    tasks = [(t0, t1 - t0) for t0, t1 in zip(ends, ends[1:])]
    parts = _fan_out(partial(_mc_task, F, cols, seed, table), tasks, jobs)
    total = sum(p[0] for p in parts)
    total_sq = sum(p[1] for p in parts)
    if trials > 1:
        variance_num = trials * total_sq - total * total
        std_error = math.sqrt(variance_num / (trials - 1)) / trials
    else:
        std_error = 0.0
    return McEstimate(
        mean=total / trials,
        std_error=std_error,
        trials=trials,
        seed=seed,
        min_draws=min(p[2] for p in parts),
        max_draws=max(p[3] for p in parts),
    )
