"""Finite field arithmetic for GF(p^m) with integer-encoded elements.

Elements are plain Python ints in [0, q) with q = p^m. The base-p digits of
the integer, least significant first, are the coefficients of the element in
the polynomial basis: digit i is the coefficient of x^i. For prime fields
(m = 1) this is ordinary arithmetic modulo p.

Extension fields reduce modulo a monic irreducible polynomial of degree m,
stored as its little-endian coefficient list. When no modulus is supplied,
the lexicographically smallest monic irreducible is chosen; comparing
coefficient lists low-degree-first is the same as comparing their integer
encodings, so the search just walks candidate encodings upward. The choice
is deterministic: two fields built from the same (p, m) anywhere, on any
machine, produce identical arithmetic.

Scope bounds: q <= 2^31 and m <= 16. Dense numpy operation tables exist
for q <= 512 (_TABLE_LIMIT), exp/log tables for q <= 2^16 (_LOG_LIMIT),
and only this module reads either limit. The one vector arithmetic
(FieldSpec.vec_ops), which every numpy routine of the exact engine and the
simulation reads, serves every field in scope: on the operation tables,
then on exp/log tables, then by int64 arithmetic. Scalar multiplication
likewise uses exp/log tables for q <= 2^16 and direct polynomial
arithmetic above that. Primality, prime-power detection and the prime
factors of q - 1 (for the generator search) all read one
smallest-prime-factor trial division.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

_MAX_ORDER = 2**31
_MAX_DEGREE = 16
_TABLE_LIMIT = 512
_LOG_LIMIT = 1 << 16
_DIGIT_BLOCK = 1 << 12  # elements per digit convolution, so its rows stay a few MB


def _smallest_prime_factor(n: int) -> int:
    """The least prime dividing n >= 2, by trial division; n itself if prime."""
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def _is_prime(n: int) -> bool:
    return n >= 2 and _smallest_prime_factor(n) == n


def _prime_factors(n: int) -> List[int]:
    """The distinct primes dividing n, ascending."""
    out = []
    while n > 1:
        f = _smallest_prime_factor(n)
        out.append(f)
        while n % f == 0:
            n //= f
    return out


def _digits(value: int, p: int) -> List[int]:
    """Base-p digit list, least significant first; empty for 0."""
    out = []
    while value:
        value, r = divmod(value, p)
        out.append(r)
    return out


def _undigits(coeffs: Sequence[int], p: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * p + c
    return out


def _digitwise_np(a: np.ndarray, b: np.ndarray, sign: int, p: int, m: int) -> np.ndarray:
    """a + sign * b over GF(p^m), base-p digit by digit (sign 1 or -1), as an intp array.

    a and b broadcast. Digit i of a + sign * b is a // p^i + sign * (b // p^i)
    modulo p: the higher digits of each quotient are multiples of p.
    """
    a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
    if m == 1:
        return (a + sign * b) % p
    out, shift = 0, 1
    for _ in range(m):
        out = out + ((a // shift + sign * (b // shift)) % p) * shift
        shift *= p
    return out


def _poly_mod(a: List[int], b: Sequence[int], p: int) -> List[int]:
    """Remainder of a modulo b over GF(p); b must be monic. Mutates a."""
    db = len(b) - 1
    for top in range(len(a) - 1, db - 1, -1):
        c = a[top]
        if c:
            a[top] = 0
            for i in range(db):
                a[top - db + i] = (a[top - db + i] - c * b[i]) % p
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_eval(poly: Sequence[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % p
    return acc


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Irreducibility over GF(p) by root scan plus trial division.

    A reducible polynomial of degree 2 or 3 must have a linear factor, so the
    root scan settles those. Higher degrees trial-divide by every monic
    polynomial of degree 2..deg/2; the in-scope degrees keep that cheap.
    """
    m = len(poly) - 1
    if m < 1:
        return False
    if m == 1:
        return True
    for x in range(p):
        if _poly_eval(poly, x, p) == 0:
            return False
    if m <= 3:
        return True
    for d in range(2, m // 2 + 1):
        for enc in range(p**d):
            div = _digits(enc, p)
            div += [0] * (d - len(div))
            div.append(1)
            if not _poly_mod(list(poly), div, p):
                return False
    return True


def _smallest_irreducible(p: int, m: int) -> Tuple[int, ...]:
    for enc in range(p**m):
        low = _digits(enc, p)
        low += [0] * (m - len(low))
        cand = low + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise RuntimeError(f"no irreducible polynomial of degree {m} over GF({p})")


class FieldSpec:
    """Immutable description of GF(p^m) together with its arithmetic.

    Value semantics: equality and hashing use (p, m, modulus) only. Lookup
    tables are built lazily and never change observable behaviour, so
    instances are safe to share between threads and to rebuild in worker
    processes.
    """

    __slots__ = ("p", "m", "q", "modulus", "_exp", "_log", "_np_tables", "_vec_ops")

    def __init__(self, p: int, m: int = 1, modulus: Optional[Sequence[int]] = None):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"p must be a prime integer, got {p!r}")
        if not isinstance(m, int) or not 1 <= m <= _MAX_DEGREE:
            raise ValueError(f"extension degree must be in 1..{_MAX_DEGREE}, got {m!r}")
        q = p**m
        if q > _MAX_ORDER:
            raise ValueError(f"field order {q} exceeds the scope bound 2^31")
        self.p = p
        self.m = m
        self.q = q
        if m == 1:
            self.modulus = None
        elif modulus is None:
            self.modulus = _smallest_irreducible(p, m)
        else:
            mod = tuple(int(c) for c in modulus)
            if len(mod) != m + 1:
                raise ValueError(f"modulus must have degree {m} ({m + 1} coefficients)")
            if any(not 0 <= c < p for c in mod):
                raise ValueError("modulus coefficients must lie in [0, p)")
            if mod[-1] != 1:
                raise ValueError("modulus must be monic")
            if not _is_irreducible(mod, p):
                raise ValueError(f"modulus {list(mod)} is reducible over GF({p})")
            self.modulus = mod
        self._exp = None
        self._log = None
        self._np_tables = None
        self._vec_ops = None

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __reduce__(self):
        return (FieldSpec, (self.p, self.m, self.modulus))

    def _check(self, a: int) -> None:
        if not 0 <= a < self.q:
            raise ValueError(f"element {a!r} out of range for {self!r}")

    # -- ring operations ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self._digitwise(a, b, 1)

    def sub(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self._digitwise(a, b, -1)

    def neg(self, a: int) -> int:
        self._check(a)
        return self._digitwise(0, a, -1)

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if self.m == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        if self.q <= _LOG_LIMIT:
            exp, log = self._logtables()
            return exp[(log[a] + log[b]) % (self.q - 1)]
        return self._poly_mul_mod(a, b)

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ValueError(f"0 has no multiplicative inverse in {self!r}")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        if self.q <= _LOG_LIMIT:
            exp, log = self._logtables()
            return exp[(-log[a]) % (self.q - 1)]
        return self._pow_direct(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        self._check(a)
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ValueError("0 cannot be raised to a negative power")
        e %= self.q - 1
        if self.m == 1:
            return pow(a, e, self.p)
        if self.q <= _LOG_LIMIT:
            exp, log = self._logtables()
            return exp[(log[a] * e) % (self.q - 1)]
        return self._pow_direct(a, e)

    def elements(self) -> List[int]:
        """All q elements in integer-encoding order, 0 first."""
        return list(range(self.q))

    def nonzero_elements(self) -> List[int]:
        return list(range(1, self.q))

    def element_coeffs(self, a: int) -> List[int]:
        """Polynomial-basis coefficient vector of a (length m, low degree first)."""
        self._check(a)
        out = _digits(a, self.p)
        out += [0] * (self.m - len(out))
        return out

    # -- internals ----------------------------------------------------------

    def _digitwise(self, a: int, b: int, sign: int) -> int:
        """a + sign * b coefficient by coefficient (sign 1 or -1): one XOR in characteristic 2."""
        p = self.p
        if p == 2:
            return a ^ b
        if self.m == 1:
            return (a + sign * b) % p
        out, mult = 0, 1
        while a or b:
            out += ((a + sign * b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def _poly_mul_mod(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        A = _digits(a, p)
        B = _digits(b, p)
        prod = [0] * (len(A) + len(B) - 1)
        for i, ai in enumerate(A):
            if ai:
                for j, bj in enumerate(B):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        if len(prod) > m:
            _poly_mod(prod, self.modulus, p)
        return _undigits(prod[: m + 1], p)

    def _pow_direct(self, a: int, e: int) -> int:
        out = 1
        base = a
        while e:
            if e & 1:
                out = self._poly_mul_mod(out, base) if out != 1 else base
            base = self._poly_mul_mod(base, base)
            e >>= 1
        return out

    def _find_generator(self) -> int:
        order = self.q - 1
        checks = [order // f for f in _prime_factors(order)]
        # 1 generates GF(2)'s one-element group; past q = 2 it fails every check.
        for g in range(1, self.q):
            if all(self._pow_direct(g, c) != 1 for c in checks):
                return g
        raise RuntimeError(f"no multiplicative generator found for {self!r}")

    def _logtables(self):
        if self._exp is None:
            g, p, q = self._find_generator(), self.p, self.q
            # Multiplication by g as one q-entry table, summed from the images
            # g * c * x^i of the basis monomials: by XOR in characteristic 2.
            a, times_g = np.arange(q, dtype=np.intp), np.zeros(q, dtype=np.intp)
            for i in range(self.m if self.m > 1 else 0):
                images = np.array([self._poly_mul_mod(g, c * p**i) for c in range(p)], dtype=np.intp)
                part = images[a // p**i % p]
                times_g = times_g ^ part if p == 2 else _digitwise_np(times_g, part, 1, p, self.m)
            step = times_g.tolist()
            exp, log, cur = [0] * (q - 1), [-1] * q, 1
            for i in range(q - 1):
                exp[i] = cur
                log[cur] = i
                cur = cur * g % p if self.m == 1 else step[cur]
            if cur != 1:
                raise RuntimeError("generator order check failed")
            self._exp = exp
            self._log = log
        return self._exp, self._log

    def op_tables(self):
        """Dense (add, sub, mul, inv) numpy tables, from which vec_ops is built.

        add/sub/mul are q-by-q uint16 arrays indexed [a, b]; inv is a length-q
        vector with inv[0] = 0 as a placeholder that callers must not consume.
        Only available for q <= 512.
        """
        if self._np_tables is None:
            q, p = self.q, self.p
            if q > _TABLE_LIMIT:
                raise ValueError(f"operation tables are limited to q <= {_TABLE_LIMIT}")
            A = np.arange(q, dtype=np.int64)[:, None]
            B = np.arange(q, dtype=np.int64)[None, :]
            add, sub = (_digitwise_np(A, B, sign, p, self.m) for sign in (1, -1))
            exp, log = self._logtables()
            e = np.asarray(exp, dtype=np.int64)
            l = np.asarray(log, dtype=np.int64)
            mul = np.zeros((q, q), dtype=np.int64)
            mul[1:, 1:] = e[(l[1:, None] + l[None, 1:]) % (q - 1)]
            inv = np.zeros(q, dtype=np.int64)
            inv[1:] = e[(-l[1:]) % (q - 1)]
            self._np_tables = tuple(t.astype(np.uint16) for t in (add, sub, mul, inv))
        return self._np_tables

    def vec_ops(self) -> "VecOps":
        """The field's one VecOps, built on first use and kept; every field has one."""
        if self._vec_ops is None:
            self._vec_ops = VecOps(self)
        return self._vec_ops


class VecOps:
    """GF(q) arithmetic on numpy arrays of elements, for every field in scope.

    dtype is the narrowest unsigned type that holds q - 1 (uint8, uint16 or
    uint32). add, sub and mul(a, b, out=None) broadcast a against b, and
    inv(a) inverts each nonzero entry. In characteristic 2 add and sub are
    one XOR. Up to 512 elements (_TABLE_LIMIT) every other op is one take
    from a raveled q-by-q table at a * q + b; past that add and sub work
    modulo p, digit by digit in extension fields. Up to 2^16 (_LOG_LIMIT)
    inv takes from a q-entry table, and past 512 mul adds two logarithms
    and takes from a doubled exp table (log 0 points into a zero tail).
    Past 2^16, the direct branch (odd characteristic only), mul is a * b % p
    on int64 in prime fields and a base-p digit convolution reduced by the
    monic modulus in extension fields, and inv the Fermat power a^(q - 2).
    A take without out raises IndexError on an element out of range (with
    out it clips). The direct branch does not range-check: its inputs come
    from validated MatrixGF entries.
    """

    __slots__ = ("q", "p", "m", "dtype", "_inv", "_add", "_sub", "_mul", "_log", "_exp", "_reduce")

    def __init__(self, F: FieldSpec):
        q, self.p, self.m = F.q, F.p, F.m
        self.q, self.dtype = q, np.min_scalar_type(q - 1)
        self._add = self._sub = self._mul = self._log = self._exp = self._inv = self._reduce = None
        if q <= _TABLE_LIMIT:
            add, sub, mul, self._inv = (t.astype(self.dtype, copy=False) for t in F.op_tables())
            if F.p != 2:
                self._add, self._sub = add.reshape(-1), sub.reshape(-1)
            self._mul = mul.reshape(-1)
        elif q > _LOG_LIMIT:  # row s - m: the digits of x^s mod the modulus, s = m .. 2m - 2
            self._reduce = np.array([F.element_coeffs(F.pow(F.p, s)) for s in range(F.m, 2 * F.m - 1)])
        else:
            exp, log = F._logtables()
            e = np.asarray(exp, dtype=self.dtype)
            self._log = np.asarray(log, dtype=np.intp)
            self._log[0] = 2 * (q - 1)  # any sum with log 0 lands in the zero tail
            self._exp = np.concatenate([e, e, np.zeros(2 * q - 1, dtype=self.dtype)])
            self._inv = np.zeros(q, dtype=self.dtype)
            self._inv[1:] = e[-self._log[1:] % (q - 1)]

    def _take(self, table, a, b, out):
        index = np.multiply(a, self.q, dtype=np.intp) + b
        return table.take(index) if out is None else table.take(index, out=out, mode="clip")

    def _cast(self, values: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        if out is None:
            return values.astype(self.dtype)
        np.copyto(out, values, casting="unsafe")
        return out

    def _sum(self, table, a, b, sign, out):
        if self.p == 2:
            return np.bitwise_xor(a, b, out=out)
        if table is not None:
            return self._take(table, a, b, out)
        return self._cast(_digitwise_np(a, b, sign, self.p, self.m), out)

    def _product(self, a, b) -> np.ndarray:
        """a * b as int64 values, in the direct branch (q > 2^16): no intermediate reaches 2^36."""
        p, m = self.p, self.m
        if m == 1:
            return np.multiply(a, b, dtype=np.int64) % p
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        a, b = (np.broadcast_to(x, shape).reshape(-1) for x in (a, b))
        out, powers = np.empty(a.size, dtype=np.int64), p ** np.arange(m, dtype=np.int64)
        for s in range(0, a.size, _DIGIT_BLOCK):
            da, db = (x[s:s + _DIGIT_BLOCK] // powers[:, None] % p for x in (a, b))
            conv = np.zeros((2 * m - 1, da.shape[1]), dtype=np.int64)
            for i in range(m):
                conv[i:i + m] += da[i] * db
            conv %= p
            out[s:s + _DIGIT_BLOCK] = powers @ ((conv[:m] + self._reduce.T @ conv[m:]) % p)
        return out.reshape(shape)

    def add(self, a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        return self._sum(self._add, a, b, 1, out)

    def sub(self, a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        return self._sum(self._sub, a, b, -1, out)

    def mul(self, a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        if self._mul is not None:
            return self._take(self._mul, a, b, out)
        if self._exp is None:
            return self._cast(self._product(a, b), out)
        index = self._log.take(a) + self._log.take(b)
        return self._exp.take(index, out=out, mode="clip")

    def inv(self, a: np.ndarray) -> np.ndarray:
        """The inverse of each entry of a, which must be nonzero (0 gives 0)."""
        if self._inv is not None:
            return self._inv.take(a)
        out, base, e = np.ones(np.shape(a), dtype=np.int64), a, self.q - 2
        while e:
            if e & 1:
                out = self._product(out, base)
            base, e = self._product(base, base), e >> 1
        return out.astype(self.dtype)


def field_new(p: int, m: int = 1, modulus: Optional[Sequence[int]] = None) -> FieldSpec:
    """Construct GF(p^m), validating p, m, and the modulus (if given)."""
    return FieldSpec(p, m, modulus)


def _prime_power(n: int) -> Tuple[int, int]:
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"{n!r} is not a prime power")
    p = _smallest_prime_factor(n)
    m = 0
    rest = n
    while rest % p == 0:
        rest //= p
        m += 1
    if rest != 1:
        raise ValueError(f"{n} is not a prime power")
    return p, m


def is_prime_power(n: int) -> bool:
    try:
        _prime_power(n)
    except ValueError:
        return False
    return True


def field_from_order(q: int) -> FieldSpec:
    """GF(q) for a prime power q, with the default modulus when q = p^m, m > 1."""
    p, m = _prime_power(q)
    return FieldSpec(p, m)


def parse_field_spec(text: str) -> FieldSpec:
    """Parse a field description string: "8", "2^3", or "q=8"."""
    s = text.strip()
    if s.startswith("q="):
        s = s[2:].strip()
    try:
        if "^" in s:
            ps, ms = s.split("^", 1)
            return FieldSpec(int(ps), int(ms))
        return field_from_order(int(s))
    except ValueError as exc:
        raise ValueError(f"bad field spec {text!r}: {exc}") from None
