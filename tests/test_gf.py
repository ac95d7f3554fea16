import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from coverdepth.cli import main
from coverdepth.coverage import mds_bound
from coverdepth.gf import (
    FieldSpec,
    field_from_order,
    field_new,
    is_prime_power,
    parse_field_spec,
)

AXIOM_ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 64]


@pytest.mark.parametrize("q", AXIOM_ORDERS)
def test_field_axioms_exhaustive(q):
    # Table algebra over all q^3 triples: broadcasting keeps this cheap.
    F = field_from_order(q)
    add, sub, mul, inv = F.op_tables()
    a = np.arange(q).reshape(q, 1, 1)
    b = np.arange(q).reshape(1, q, 1)
    c = np.arange(q).reshape(1, 1, q)
    assert (add[add[a, b], c] == add[a, add[b, c]]).all()
    assert (mul[mul[a, b], c] == mul[a, mul[b, c]]).all()
    assert (add[a, b] == add[b, a]).all()
    assert (mul[a, b] == mul[b, a]).all()
    assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()
    assert (add[np.arange(q), 0] == np.arange(q)).all()
    assert (mul[np.arange(q), 1] == np.arange(q)).all()
    assert (sub[add[a.reshape(q, 1), b.reshape(1, q)], b.reshape(1, q)] == a.reshape(q, 1)).all()
    nz = np.arange(1, q)
    assert (mul[nz, inv[nz]] == 1).all()
    assert sorted(inv[nz]) == list(nz)


@pytest.mark.parametrize("q", AXIOM_ORDERS + [256, 257, 512])
def test_tables_match_scalar_ops(q):
    # The op tables and the vector arithmetic against the scalar ops over
    # all q^2 pairs (a[i], b[i]), each vector op in one call.
    F = field_from_order(q)
    tables = dict(zip(("add", "sub", "mul"), F.op_tables()))
    ops = F.vec_ops()
    assert ops is F.vec_ops()
    assert ops.dtype == (np.uint8 if q <= 256 else np.uint16)
    a, b = (x.astype(ops.dtype) for x in np.divmod(np.arange(q * q), q))
    for name, table in tables.items():
        scalar = list(map(getattr(F, name), a.tolist(), b.tolist()))
        assert table[a, b].tolist() == scalar, name
        assert getattr(ops, name)(a, b).tolist() == scalar, name
        out = np.empty(q * q, dtype=ops.dtype)
        assert getattr(ops, name)(a, b, out=out) is out and out.tolist() == scalar, name
    inverses = [F.inv(x) for x in range(1, q)]
    assert F.op_tables()[3][1:].tolist() == inverses
    assert ops.inv(np.arange(1, q)).tolist() == inverses
    # Without out, an element out of range raises instead of clipping.
    with pytest.raises(IndexError):
        ops.mul(np.array([q - 1]), np.array([q]))


@pytest.mark.parametrize("q", [521, 729, 1024, 4096, 65521, 65537, 2**31 - 1, 3**11, 257**2])
def test_vector_ops_past_the_table_limit_match_scalar_ops(q):
    # Past 512 elements there are no q-by-q tables. Up to 2^16 elements mul
    # and inv read log tables; past that (uint32 elements) mul works on
    # int64 modulo p (GF(65537), GF(2^31 - 1)) or by a base-p digit
    # convolution reduced by the modulus (GF(3^11), GF(257^2)), and inv is a
    # Fermat power. add and sub work by XOR (GF(1024), GF(4096)), modulo p
    # (GF(521), GF(65521) and the primes past 2^16) or digit by digit
    # (GF(729) = GF(3^6), GF(3^11), GF(257^2)). Checked on 20,000 random
    # pairs plus every pair with a 0 or a 1 on either side, where "every"
    # past 2^16 elements is 500 random ones with 0, 1 and q - 1.
    F = field_from_order(q)
    ops = F.vec_ops()
    assert ops is F.vec_ops() and ops.dtype == (np.uint16 if q <= 1 << 16 else np.uint32)
    rng = random.Random(q)
    every = np.arange(q) if q <= 1 << 16 else np.array([rng.randrange(q) for _ in range(500)] + [0, 1, q - 1])
    zeros, ones = np.zeros(len(every), np.int64), np.ones(len(every), np.int64)
    a = np.concatenate([[rng.randrange(q) for _ in range(20_000)], zeros, ones, every, every])
    b = np.concatenate([[rng.randrange(q) for _ in range(20_000)], every, every, zeros, ones])
    a, b = a.astype(ops.dtype), b.astype(ops.dtype)
    for name in ("add", "sub", "mul"):
        scalar = list(map(getattr(F, name), a.tolist(), b.tolist()))
        result = getattr(ops, name)(a, b)
        assert result.dtype == ops.dtype and result.tolist() == scalar, name
        out = np.empty(len(a), dtype=ops.dtype)
        assert getattr(ops, name)(a, b, out=out) is out and out.tolist() == scalar, name
    nonzero = every[every != 0].astype(ops.dtype)
    inverses = ops.inv(nonzero)
    assert inverses.dtype == ops.dtype and inverses.tolist() == list(map(F.inv, nonzero.tolist()))
    if q <= 1 << 16:  # the direct branch does not range-check
        with pytest.raises(IndexError):
            ops.mul(np.array([q - 1]), np.array([q]))
    # A pickled field, as a worker receives it, builds its own arithmetic.
    G = pickle.loads(pickle.dumps(F))
    assert G.vec_ops() is not ops and G.vec_ops().mul(a, b).tolist() == ops.mul(a, b).tolist()


@pytest.mark.parametrize("p", [3, 7, 251, 509])
def test_prime_field_log_tables_match_the_digit_list_step(p):
    # Prime fields step their exp table by one modular multiplication; the
    # polynomial step on base-p digit lists must give the same tables.
    F = FieldSpec(p)
    g = F._find_generator()
    exp, cur = [], 1
    for _ in range(p - 1):
        exp.append(cur)
        cur = F._poly_mul_mod(cur, g)
    log = [-1] * p
    for i, a in enumerate(exp):
        log[a] = i
    assert F._logtables() == (exp, log)


@pytest.mark.parametrize("q", [4, 8, 9, 27, 256, 1024, 2187, 4096, 1 << 16])
def test_extension_field_log_tables_match_the_polynomial_step(q):
    # Extension fields step their exp table through one table of
    # multiplication by the generator; one polynomial product per element
    # must give the same tables.
    F = field_from_order(q)
    g = F._find_generator()
    exp, cur = [], 1
    for _ in range(q - 1):
        exp.append(cur)
        cur = F._poly_mul_mod(cur, g)
    assert cur == 1
    log = [-1] * q
    for i, a in enumerate(exp):
        log[a] = i
    assert F._logtables() == (exp, log)


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (5, 2), (2, 4)])
def test_frobenius(p, m):
    F = field_new(p, m)
    for a in F.elements():
        for b in F.elements():
            assert F.pow(F.add(a, b), p) == F.add(F.pow(a, p), F.pow(b, p))


def test_default_moduli_are_smallest():
    assert field_new(2, 2).modulus == (1, 1, 1)
    assert field_new(2, 3).modulus == (1, 1, 0, 1)
    assert field_new(3, 2).modulus == (1, 0, 1)
    assert field_new(2, 4).modulus == (1, 1, 0, 0, 1)


def test_pow_cases():
    F = field_new(3, 2)
    g = F._find_generator()
    assert F.pow(g, F.q - 1) == 1
    assert F.pow(0, 0) == 1
    assert F.pow(0, 5) == 0
    with pytest.raises(ValueError):
        F.pow(0, -1)
    for a in F.nonzero_elements():
        assert F.mul(a, F.pow(a, -1)) == 1


def test_neg_and_sub_consistency():
    # add, sub and neg act on polynomial-basis coefficients one by one:
    # hold them to that oracle on every pair of the small fields and on
    # seeded pairs of GF(2^10) and GF(5^7).
    def oracle(F, a, b, sign):
        coeffs = [(x + sign * y) % F.p for x, y in zip(F.element_coeffs(a), F.element_coeffs(b))]
        return sum(c * F.p**i for i, c in enumerate(coeffs))

    for q in (2, 4, 8, 9, 25, 27, 1024, 5**7):
        F = field_from_order(q)
        if q < 1024:
            pairs = [(a, b) for a in F.elements() for b in F.elements()]
        else:
            rng = random.Random(q)
            pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(500)]
            pairs += [(0, 0), (q - 1, 1)]
        for a, b in pairs:
            assert F.add(a, b) == oracle(F, a, b, 1), (q, a, b)
            assert F.sub(a, b) == oracle(F, a, b, -1), (q, a, b)
            assert F.neg(b) == oracle(F, 0, b, -1), (q, b)
            assert F.sub(a, b) == F.add(a, F.neg(b))
        if F.p == 2:
            assert all(F.neg(a) == a for a, _ in pairs)


def test_element_coeffs_round_trip():
    F = field_new(3, 2)
    seen = set()
    for a in F.elements():
        coeffs = F.element_coeffs(a)
        assert len(coeffs) == 2
        assert all(0 <= c < 3 for c in coeffs)
        seen.add(tuple(coeffs))
    assert len(seen) == 9


def test_validation_errors():
    with pytest.raises(ValueError):
        field_new(4)  # not prime
    with pytest.raises(ValueError):
        field_new(2, 0)
    with pytest.raises(ValueError):
        field_new(2, 17)  # degree bound
    with pytest.raises(ValueError):
        field_new(2, 2, modulus=(1, 1))  # wrong length
    with pytest.raises(ValueError):
        field_new(2, 2, modulus=(1, 1, 2))  # coefficient out of range
    with pytest.raises(ValueError):
        field_new(2, 3, modulus=(1, 1, 0, 0))  # not monic
    with pytest.raises(ValueError):
        field_new(2, 2, modulus=(0, 1, 1))  # x^2 + x = x(x+1)
    with pytest.raises(ValueError):
        field_new(2, 2, modulus=(1, 0, 1))  # x^2 + 1 = (x+1)^2 over GF(2)
    for composite in (91, 65535):
        with pytest.raises(ValueError):
            field_new(composite)
    F = field_new(5)
    with pytest.raises(ValueError):
        F.inv(0)
    with pytest.raises(ValueError):
        F.add(5, 0)
    with pytest.raises(ValueError):
        F.add(-1, 0)


def test_prime_power_detection():
    yes = [2, 3, 4, 5, 8, 9, 16, 27, 121, 128, 243, 65537, 2**16, 3**11, 5**7, 2**31 - 1]
    no = [1, 6, 10, 12, 15, 100, 0, -3, 2**31 - 2, 1021 * 1031, 65535]
    assert all(is_prime_power(q) for q in yes)
    assert not any(is_prime_power(q) for q in no)


def test_field_from_order():
    F = field_from_order(8)
    assert (F.p, F.m, F.q) == (2, 3, 8)
    with pytest.raises(ValueError):
        field_from_order(6)


def test_parse_field_spec():
    assert parse_field_spec("8").q == 8
    assert parse_field_spec("2^3").q == 8
    assert parse_field_spec("q=9").q == 9
    assert parse_field_spec(" 25 ").q == 25
    for bad in ("6", "2^0", "zebra", "q=", ""):
        with pytest.raises(ValueError):
            parse_field_spec(bad)


def test_equality_and_pickle():
    a = field_new(2, 3)
    b = field_new(2, 3)
    assert a == b and hash(a) == hash(b)
    assert a != field_new(2, 2)
    c = pickle.loads(pickle.dumps(a))
    assert c == a
    assert c.mul(3, 5) == a.mul(3, 5)


def test_large_prime_field_scalar_ops():
    F = field_new(1021)
    assert F.mul(1000, 1000) == (1000 * 1000) % 1021
    assert F.inv(7) == pow(7, 1019, 1021)
    with pytest.raises(ValueError):
        F.op_tables()  # tables are capped at q <= 512


@pytest.mark.parametrize("p,m", [(5, 7), (3, 11)])
def test_polynomial_arithmetic_above_the_log_table_limit(p, m):
    # Past 2^16 elements mul, inv and pow multiply polynomials directly.
    F = field_new(p, m)
    assert F.q > 1 << 16
    for a in range(p):
        for b in range(p):
            assert F.mul(a, b) == a * b % p  # the prime subfield
    # x^m reduces to minus the low coefficients of the modulus.
    reduced = sum((-c) % p * p**i for i, c in enumerate(F.modulus[:m]))
    assert F.pow(p, m) == reduced
    rng = random.Random(F.q)
    for _ in range(25):
        a, b, c = (rng.randrange(1, F.q) for _ in range(3))
        assert F.mul(a, F.inv(a)) == 1
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.mul(F.pow(a, F.q - 2), a) == 1  # a^(q-1) = 1
        assert F.pow(a, -1) == F.inv(a)
        e = rng.randrange(2, 12)
        power = a
        for _ in range(e - 1):
            power = F.mul(power, a)
        assert F.pow(a, e) == power


def test_expect_over_a_field_above_the_log_table_limit(capsys):
    # Reed-Solomon codes are MDS, so the exact value is the bound.
    assert main(["expect", "--field", "78125", "--code", "rs", "--n", "5", "--k", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert mds_bound(5, 2) == Fraction(9, 4)
    assert lines[:2] == ["value 9/4 (2.25)", "bound 9/4 (2.25)"]
    assert "meets MDS bound" in lines
