"""Expected number of uniform column draws until a code's generator is covered.

The random process draws columns of a generator matrix uniformly with
repetition and stops once the drawn set has full rank k. Everything here
computes the expectation of that stopping time:

  * exactly, through the identity
        E = n*H(n) - sum_{s=k}^{n-1} a(s) / C(n-1, s)
    where H is the harmonic number and a(s) counts size-s full-rank
    position subsets (information_set_profile);
  * exactly through the dual code, which is cheaper for high-rate codes:
    a(s) equals the number of independent (n-s)-subsets of the dual
    generator's columns, so the sum can be driven by
    independent_subset_profile on a small matrix;
  * in closed form for the simplex and Hamming families;
  * by Monte Carlo simulation with a counter-based generator whose output
    depends only on (seed, trial index), so estimates are reproducible
    bit for bit under any process count.

All exact values are fractions.Fraction; nothing is rounded until a caller
asks for digits.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from math import comb, factorial
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .codes import LinearCode, independent_subset_profile, information_set_profile
from .matrix import columns_of, kernel_basis
from .gf import FieldSpec, is_prime_power

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
    return f"{value.numerator}/{value.denominator}"


_CACHE_LIMIT = 8192
_harmonic_cache: List[Fraction] = [Fraction(0)]


def _range_recip_sum(lo: int, hi: int) -> Fraction:
    # Balanced splits keep the intermediate denominators comparable, which
    # is far cheaper than folding 1/i into one ever-growing fraction.
    if hi < lo:
        return Fraction(0)
    if hi - lo < 32:
        total = Fraction(0)
        for i in range(lo, hi + 1):
            total += Fraction(1, i)
        return total
    mid = (lo + hi) // 2
    return _range_recip_sum(lo, mid) + _range_recip_sum(mid + 1, hi)


def harmonic(n: int) -> Fraction:
    """H(n) = 1 + 1/2 + ... + 1/n, exactly. H(0) = 0."""
    if n < 0:
        raise ValueError("harmonic numbers need n >= 0")
    if n < len(_harmonic_cache):
        return _harmonic_cache[n]
    if n <= _CACHE_LIMIT:
        while len(_harmonic_cache) <= n:
            _harmonic_cache.append(_harmonic_cache[-1] + Fraction(1, len(_harmonic_cache)))
        return _harmonic_cache[n]
    return harmonic(_CACHE_LIMIT) + _range_recip_sum(_CACHE_LIMIT + 1, n)


def mds_bound(n: int, k: int) -> Fraction:
    """n*(H(n) - H(n-k)): the smallest expectation any [n, k] code can have.

    Attained exactly by the codes in which every k positions form an
    information set. For n beyond the harmonic cache only the k reciprocals
    1/(n-k+1) + ... + 1/n are summed, so large-n small-k queries stay cheap.
    """
    if n < 1:
        raise ValueError("length must be positive")
    if not 0 <= k <= n:
        raise ValueError(f"dimension {k} not in 0..{n}")
    if n <= _CACHE_LIMIT:
        return n * (harmonic(n) - harmonic(n - k))
    return n * _range_recip_sum(n - k + 1, n)


def expectation_exact(C: LinearCode) -> Fraction:
    """Exact expectation via the full-rank subset profile of the generator."""
    counts = information_set_profile(C)
    n = C.n
    total = n * harmonic(n)
    for s in range(C.k, n):
        total -= Fraction(counts[s], comb(n - 1, s))
    return total


def expectation_exact_dual(C: LinearCode) -> Fraction:
    """Exact expectation driven by the dual generator's independent subsets.

    Size-s full-rank subsets of C correspond to independent (n-s)-subsets
    of the dual columns, which rewrites the defect sum over s = k..n-1 as
    a sum over t = n-s = 1..n-k. Preferable when n - k < k.
    """
    counts = independent_subset_profile(kernel_basis(C.generator))
    n = C.n
    total = n * harmonic(n)
    for t in range(1, n - C.k + 1):
        total -= Fraction(counts[t], comb(n - 1, t - 1))
    return total


def expectation_exact_auto(C: LinearCode) -> Fraction:
    """Exact expectation, routed through whichever side has lower dimension."""
    if C.n - C.k < C.k:
        return expectation_exact_dual(C)
    return expectation_exact(C)


def expectation_simplex(q: int, k: int) -> Fraction:
    """Closed form for the k-dimensional simplex code over GF(q).

    E = k + sum_{i=1}^{k} (q^(i-1) - 1) / (q^k - q^(i-1)).
    """
    if not is_prime_power(q):
        raise ValueError(f"{q} is not a prime power")
    if k < 1:
        raise ValueError("k must be at least 1")
    total = Fraction(k)
    for i in range(1, k + 1):
        total += Fraction(q ** (i - 1) - 1, q**k - q ** (i - 1))
    return total


def expectation_hamming(q: int, r: int) -> Fraction:
    """Closed form for the Hamming code with redundancy r over GF(q).

    The dual-side sum has only r terms: the number of independent
    t-subsets of all projective points is prod_{i<t} (q^r - q^i)/(q-1)
    divided by t!.
    """
    if not is_prime_power(q):
        raise ValueError(f"{q} is not a prime power")
    if r < 2:
        raise ValueError("redundancy must be at least 2")
    n = (q**r - 1) // (q - 1)
    total = n * harmonic(n)
    for t in range(1, r + 1):
        prod = Fraction(1)
        for i in range(t):
            prod *= Fraction(q**r - q**i, q - 1)
        total -= prod / (factorial(t) * comb(n - 1, t - 1))
    return total


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


def _mix64_np(x: "np.ndarray") -> "np.ndarray":
    with np.errstate(over="ignore"):
        x = x ^ (x >> np.uint64(30))
        x = x * np.uint64(_MIX_A)
        x = x ^ (x >> np.uint64(27))
        x = x * np.uint64(_MIX_B)
        x = x ^ (x >> np.uint64(31))
    return x


def _simulate_scalar(
    F: FieldSpec,
    cols: Sequence[Tuple[int, ...]],
    n: int,
    k: int,
    key: int,
    trace: Optional[List[int]] = None,
) -> int:
    """Draw columns under the given per-trial key until rank k; count draws.

    Maintains a basis in pivot slots: the vector in slot r has its first
    nonzero coordinate at r. Uniformity over column indices comes from
    64-bit rejection sampling, with the attempt number folded into the
    counter so retries stay deterministic.
    """
    if k == 0:
        return 0
    rem = (1 << 64) % n
    thresh = (1 << 64) - rem
    basis: List[Optional[List[int]]] = [None] * k
    rnk = 0
    draws = 0
    while rnk < k:
        attempt = 0
        val = _mix64((key + (draws << 20)) & _MASK64)
        while rem and val >= thresh:
            attempt += 1
            val = _mix64((key + ((draws << 20) | attempt)) & _MASK64)
        j = val % n
        draws += 1
        if trace is not None:
            trace.append(j)
        v = list(cols[j])
        for r in range(k):
            c = v[r]
            if not c:
                continue
            w = basis[r]
            if w is not None:
                v = [F.sub(x, F.mul(c, y)) for x, y in zip(v, w)]
            else:
                cinv = F.inv(c)
                if cinv != 1:
                    v = [F.mul(cinv, x) for x in v]
                basis[r] = v
                rnk += 1
                break
    return draws


def simulate_trial(C: LinearCode, seed: int, trial: int = 0, trace: Optional[List[int]] = None) -> int:
    """Number of draws one simulated trial needs. Pure in (seed, trial)."""
    cols = columns_of(C.generator)
    return _simulate_scalar(C.field, cols, C.n, C.k, _trial_key(seed, trial), trace)


def _draw_counts_vector(
    F: FieldSpec,
    cols: Sequence[Tuple[int, ...]],
    n: int,
    k: int,
    seed: int,
    t0: int,
    count: int,
) -> List[int]:
    # Table-driven lanes: all live trials advance one draw per round. Each
    # lane carries its own pivot-slot basis as a (k, k) block. Matches
    # _simulate_scalar draw for draw; the tests hold the two paths equal.
    _, sub_t, mul_t, inv_t = F.op_tables()
    cols_arr = np.array(cols, dtype=np.uint16)
    trial_idx = np.arange(t0, t0 + count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        keys = _mix64_np(np.uint64(_mix64(seed)) + trial_idx * np.uint64(_GOLDEN))
    draws = np.zeros(count, dtype=np.uint64)
    rank_now = np.zeros(count, dtype=np.int64)
    basis = np.zeros((count, k, k), dtype=np.uint16)
    used = np.zeros((count, k), dtype=bool)
    alive = np.ones(count, dtype=bool)
    rem = (1 << 64) % n
    thresh = np.uint64((1 << 64) - rem) if rem else None
    n_u = np.uint64(n)
    shift = np.uint64(20)
    one = np.uint64(1)
    while True:
        live = np.nonzero(alive)[0]
        if live.size == 0:
            break
        with np.errstate(over="ignore"):
            val = _mix64_np(keys[live] + (draws[live] << shift))
        if thresh is not None:
            bad = val >= thresh
            att = np.zeros(live.size, dtype=np.uint64)
            while bad.any():
                sel = np.nonzero(bad)[0]
                att[sel] += one
                with np.errstate(over="ignore"):
                    val[sel] = _mix64_np(
                        keys[live[sel]] + ((draws[live[sel]] << shift) | att[sel])
                    )
                bad[sel] = val[sel] >= thresh
        col = val % n_u
        draws[live] += one
        v = cols_arr[col]
        for r in range(k):
            nz = v[:, r] != 0
            if not nz.any():
                continue
            slot = used[live, r]
            red = nz & slot
            if red.any():
                sel = np.nonzero(red)[0]
                c = v[sel, r]
                v[sel] = sub_t[v[sel], mul_t[c[:, None], basis[live[sel], r, :]]]
            ins = nz & ~slot
            if ins.any():
                sel = np.nonzero(ins)[0]
                lanes = live[sel]
                cinv = inv_t[v[sel, r]]
                basis[lanes, r, :] = mul_t[cinv[:, None], v[sel]]
                used[lanes, r] = True
                rank_now[lanes] += 1
                v[sel] = 0
        alive[live[rank_now[live] >= k]] = False
    return [int(x) for x in draws]


def _draw_counts(
    F: FieldSpec,
    cols: Sequence[Tuple[int, ...]],
    n: int,
    k: int,
    seed: int,
    t0: int,
    count: int,
    force_scalar: bool = False,
) -> List[int]:
    if not force_scalar and k >= 1 and F.q <= 512:
        return _draw_counts_vector(F, cols, n, k, seed, t0, count)
    return [_simulate_scalar(F, cols, n, k, _trial_key(seed, t0 + j)) for j in range(count)]


def _fan_out(fn: Callable, tasks: Sequence, jobs: int) -> list:
    """fn over tasks, results in task order.

    Runs in-process when jobs == 1 or there is a single task, otherwise on
    a pool of `jobs` worker processes. Tasks and results cross the process
    boundary by pickle; a FieldSpec travels as (p, m, modulus).
    """
    if jobs == 1 or len(tasks) == 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))


def _mc_chunk(task) -> Tuple[int, int, int, int]:
    F, cols, n, k, seed, t0, count = task
    counts = _draw_counts(F, cols, n, k, seed, t0, count)
    total = sum(counts)
    total_sq = sum(c * c for c in counts)
    return total, total_sq, min(counts), max(counts)


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
    (code, trials, seed) is identical for every value of jobs. With a
    single trial the standard error is reported as 0.0.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    F = C.field
    cols = tuple(columns_of(C.generator))
    tasks = [
        (F, cols, C.n, C.k, seed, t0, min(_CHUNK, trials - t0))
        for t0 in range(0, trials, _CHUNK)
    ]
    parts = _fan_out(_mc_chunk, tasks, jobs)
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
