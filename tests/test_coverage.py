import math
import os
import pickle
import random
import signal
import statistics
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import lowered_keep_limit, random_invertible
from coverdepth import codes, coverage
from coverdepth.cli import main
from coverdepth.codes import (
    LinearCode,
    hamming_code,
    independent_subset_profile,
    information_set_count,
    information_set_profile,
    shortened_dim_count,
    shortened_subcode_dim,
    linear_code,
    projective_points,
    reed_solomon,
    simplex_code,
)
from coverdepth.coverage import (
    BudgetExceededError,
    McEstimate,
    _defect_sum,
    _draw_count_array,
    _dual_reader,
    _lattice_kept,
    _mix64,
    _primal_reader,
    _range_recip_sum,
    _trial_key,
    decimal_str,
    expectation_exact,
    expectation_exact_auto,
    expectation_exact_dual,
    expectation_hamming,
    expectation_monte_carlo,
    expectation_simplex,
    harmonic,
    mds_bound,
    simulate_trial,
    subspace_histogram,
    to_decimal,
)
from coverdepth.gf import FieldSpec, field_from_order
from coverdepth.matrix import (
    columns_of,
    eliminate,
    from_columns,
    identity,
    kernel_basis,
    mat_mul,
    matrix,
    row_space_canonical,
    span_basis,
    zeros,
)


def test_harmonic_basics():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(7) == Fraction(363, 140)
    assert harmonic(10) - harmonic(9) == Fraction(1, 10)
    with pytest.raises(ValueError):
        harmonic(-1)
    running = Fraction(0)
    for n in range(1, 301):
        running += Fraction(1, n)
        assert harmonic(n) == running, n
    # Cold, over the common denominator lcm(1..n): one integer sum.
    harmonic.cache_clear()
    n = 10**4
    lcm = math.lcm(*range(1, n + 1))
    assert harmonic(n) == Fraction(sum(lcm // i for i in range(1, n + 1)), lcm)


def test_harmonic_beyond_cache():
    # Differences of harmonic numbers are the tail sums _range_recip_sum adds.
    assert harmonic(8193) - harmonic(8192) == Fraction(1, 8193)
    tail = sum((Fraction(1, i) for i in range(8193, 8201)), Fraction(0))
    assert harmonic(8200) - harmonic(8192) == tail
    assert _range_recip_sum(5, 100) == harmonic(100) - harmonic(4)
    assert _range_recip_sum(9, 8) == 0


def test_mds_bound_values():
    assert mds_bound(7, 4) == Fraction(319, 60)
    assert mds_bound(5, 2) == Fraction(9, 4)
    assert mds_bound(5, 2) == 5 * (harmonic(5) - harmonic(3))
    assert mds_bound(6, 0) == 0
    assert mds_bound(4, 4) == 4 * harmonic(4)


def test_mds_bound_beyond_cache_uses_term_form():
    n = 8200
    expected = Fraction(n, n) + Fraction(n, n - 1) + Fraction(n, n - 2)
    assert mds_bound(n, 3) == expected
    n, k = 20000, 300
    assert mds_bound(n, k) == sum((Fraction(n, n - i) for i in range(k)), Fraction(0))


def test_mds_bound_is_the_harmonic_difference_across_the_cache_limit():
    for n in (8191, 8192, 8193):
        for k in (0, 1, 7, n):
            assert mds_bound(n, k) == n * (harmonic(n) - harmonic(n - k)), (n, k)


def test_mds_bound_errors():
    with pytest.raises(ValueError):
        mds_bound(0, 0)
    with pytest.raises(ValueError):
        mds_bound(5, 6)
    with pytest.raises(ValueError):
        mds_bound(5, -1)


SIMPLEX_GRID = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (4, 2)]


@pytest.mark.parametrize("q,k", SIMPLEX_GRID)
def test_simplex_closed_form_matches_exact(q, k):
    C = simplex_code(field_from_order(q), k)
    assert expectation_simplex(q, k) == expectation_exact(C)


HAMMING_GRID = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)]


@pytest.mark.parametrize("q,r", HAMMING_GRID)
def test_hamming_closed_form_matches_exact(q, r):
    C = hamming_code(field_from_order(q), r)
    value = expectation_hamming(q, r)
    assert value == expectation_exact_dual(C)
    assert value == expectation_exact(C)


def _simplex_hand_sum(q, k):
    """E = k + sum_{i=1}^{k} (q^(i-1) - 1) / (q^k - q^(i-1)), term by term."""
    total = Fraction(k)
    for i in range(1, k + 1):
        total += Fraction(q ** (i - 1) - 1, q**k - q ** (i - 1))
    return total


def _hamming_hand_sum(q, r):
    """The defect sum over the r counts of independent t-subsets of all
    projective points of GF(q)^r: prod_{i<t} (q^r - q^i)/(q - 1) / t!."""
    # Each prefix product is itself a subset count, so every floor division is exact.
    terms, count = [], 1
    for t in range(1, r + 1):
        count = count * (q**r - q ** (t - 1)) // ((q - 1) * t)
        terms.append((t, count))
    return _defect_sum((q**r - 1) // (q - 1), terms)


def test_closed_forms_equal_the_hand_derived_sums():
    # Simplex k = 1..18 and every Hamming code of length at most 20,000 over
    # ten fields: 233 codes. Longer Hamming codes spend minutes in H(n).
    checked = 0
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 27, 32):
        for k in range(1, 19):
            assert expectation_simplex(q, k) == _simplex_hand_sum(q, k), (q, k)
            checked += 1
        r = 2
        while (q**r - 1) // (q - 1) <= 20_000:
            assert expectation_hamming(q, r) == _hamming_hand_sum(q, r), (q, r)
            checked += 1
            r += 1
    assert checked == 233


# [m, d]_q for d = 0..m, written out: the number of d-dimensional subspaces.
_GAUSSIAN_ROWS = {
    (2, 0): (1,),
    (2, 1): (1, 1),
    (2, 4): (1, 15, 35, 15, 1),
    (3, 3): (1, 13, 13, 1),
    (4, 2): (1, 5, 1),
    (5, 3): (1, 31, 31, 1),
}


@pytest.mark.parametrize("q,m", sorted(_GAUSSIAN_ROWS))
def test_subspace_histogram_of_all_points(q, m):
    # With every projective point as a column, a d-dimensional subspace
    # holds exactly its (q^d - 1)/(q - 1) points, so the histogram lists the
    # subspace counts by dimension.
    F = field_from_order(q)
    columns = projective_points(F, m) if m else []
    hist = subspace_histogram(F, columns, m)
    rows = enumerate(_GAUSSIAN_ROWS[q, m])
    assert hist == {(d, (q**d - 1) // (q - 1)): count for d, count in rows}
    assert hist == coverage._projective_histogram(q, m)


def test_lattices_past_the_keep_limit_are_never_built():
    # The subspaces of GF(2)^6 hold 26,387 member vectors, those of GF(5)^4
    # 41,056, GF(3)^5 53,968 and GF(2)^7 387,987: all but the last are kept,
    # and GF(2)^7 walks. Past GF(179) only the line GF(q)^1 is kept, with
    # its q + 1 member vectors, up to GF(65521).
    F = field_from_order(2)
    assert _lattice_kept(2, 6) and _lattice_kept(5, 4) and _lattice_kept(3, 5)
    assert not _lattice_kept(2, 7)
    assert _lattice_kept(1021, 1) and _lattice_kept(65521, 1) and not _lattice_kept(181, 2)
    assert not _lattice_kept(65536, 1) and not _lattice_kept(65537, 1)
    with pytest.raises(ValueError, match="too large to keep"):
        subspace_histogram(F, projective_points(F, 7), 7)


_REPEATED_BASES = {
    "simplex-2-3": lambda: simplex_code(field_from_order(2), 3),
    "hamming-2-3": lambda: hamming_code(field_from_order(2), 3),
    "rs-5-5-2": lambda: reed_solomon(field_from_order(5), 5, 2),
    "simplex-3-2": lambda: simplex_code(field_from_order(3), 2),
}


@pytest.mark.parametrize("code", list(_REPEATED_BASES))
@pytest.mark.parametrize("t", [1, 2, 5])
def test_repeating_every_column_leaves_the_expectation(code, t):
    # Drawing uniformly from t copies of every column is the same process,
    # so E does not change. Hamming [7,4] at t = 1 reads the dual side on
    # the auto route; every other case reads the primal side on both.
    base = _REPEATED_BASES[code]()
    want = expectation_exact_dual(base)
    if code == "simplex-2-3":
        assert want == Fraction(47, 12)
    C = linear_code(from_columns(base.field, columns_of(base.generator) * t))
    assert expectation_exact(C) == want
    assert expectation_exact_auto(C) == want


def test_repeated_columns_past_q_to_the_m_are_counted_once():
    # 30 copies of the 63 simplex columns of GF(2)^6: n = 1890 is more than
    # the 64 vectors of GF(2)^6, so each distinct column is tested once and
    # weighted by its multiplicity.
    F = field_from_order(2)
    C = linear_code(from_columns(F, projective_points(F, 6) * 30))
    assert C.n == 1890
    assert expectation_exact(C) == expectation_simplex(2, 6)
    assert expectation_exact_auto(C) == expectation_simplex(2, 6)


def _forbid_walks(monkeypatch):
    # The full-rank walk is the only walk the exact engine calls.
    def no_walk(*args):
        raise AssertionError("walked a side that the level count or a lattice reader serves")

    monkeypatch.setattr(coverage, "information_set_profile", no_walk)


def test_codes_past_the_lattice_bound_count_levels(monkeypatch, capsys):
    # Neither side's lattice is kept (GF(16)^8, GF(9)^5, GF(1031)^6 and
    # GF(1031)^14), so the kernel's columns are counted level by level, and
    # no walk runs.
    def no_lattice(*args):
        raise AssertionError("lattice built past its size bound")

    monkeypatch.setattr(coverage, "subspace_histogram", no_lattice)
    _forbid_walks(monkeypatch)
    for q, n, k in ((16, 16, 8), (9, 10, 5), (1031, 20, 14)):
        argv = ["expect", "--field", str(q), "--code", "rs", "--n", str(n), "--k", str(k)]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith(f"value {mds_bound(n, k)} ")


def test_hamming_r5_never_walks(monkeypatch):
    # The primal side (GF(2)^26) reads the kernel's columns in the kept
    # lattice of GF(2)^5, as the dual side does.
    _forbid_walks(monkeypatch)
    C = hamming_code(field_from_order(2), 5)
    assert expectation_exact_auto(C) == expectation_hamming(2, 5)
    assert expectation_exact(C) == expectation_hamming(2, 5)


def test_large_field_primal_side_reads_the_kernel(monkeypatch):
    # GF(1021)^4 is not kept, yet with n - k = 2 <= k the primal side reads
    # the kernel's columns instead of the full-rank walk.
    def no_walk(*args):
        raise AssertionError("ran the full-rank walk with n - k <= k")

    monkeypatch.setattr(coverage, "information_set_profile", no_walk)
    assert expectation_exact(reed_solomon(field_from_order(1021), 6, 4)) == mds_bound(6, 4)


@pytest.mark.parametrize("q,route", [(179, "reader"), (512, "levels"), (1031, "levels"),
                                     (65521, "levels"), (65537, "levels"), (3**11, "levels")])
def test_one_field_boundary_for_unkept_dual_sides(monkeypatch, q, route):
    # GF(q)^2 is kept up to GF(179), and its dual side is read from the
    # histogram; past it the dual side is counted by level on every field,
    # GF(65537) and GF(3^11) past 2^16 elements included.
    # Four columns, one zero and one repeated, in GF(q)^2.
    F = field_from_order(q)
    H = from_columns(F, [(1, 0), (0, 0), (1, q - 1), (1, q - 1)])
    assert _lattice_kept(q, 2) == (route == "reader")
    ran = []
    for name, label in (("_dual_reader", "reader"), ("_level_counts", "levels")):
        real = getattr(coverage, name)
        monkeypatch.setattr(coverage, name,
                            lambda *args, real=real, label=label: ran.append(label) or real(*args))
    assert coverage._dual_terms(H) == [(1, 3), (2, 2)]
    assert ran == [route]


@pytest.mark.parametrize("q", [2, 1021, 1 << 15])
def test_line_histograms_build_no_vector_arithmetic(monkeypatch, q):
    # GF(q)^1 and GF(q)^0 have no subspaces but {0} and the whole space, so
    # reading them needs no field arithmetic: with vec_ops raising, the
    # histograms, both reads of a [6,1] code and the dual read of a [3,2]
    # MDS code still run.
    def refuse(self):
        raise AssertionError("built the vector arithmetic for a line")

    F = field_from_order(q)
    monkeypatch.setattr(FieldSpec, "vec_ops", refuse)
    assert subspace_histogram(F, [(1,), (0,), (q - 1,), (1,)], 1) == {(0, 1): 1, (1, 4): 1}
    assert subspace_histogram(F, [(), ()], 0) == {(0, 2): 1}
    ones = linear_code(matrix(F, [[1] * 6]))
    assert expectation_exact(ones) == expectation_exact_auto(ones) == 1
    assert expectation_exact_dual(linear_code(matrix(F, [[1, 0, 1], [0, 1, 1]]))) == mds_bound(3, 2)


def test_a_lowered_keep_limit_leaves_no_decision_behind():
    # The tests' lowered_keep_limit clears _lattice_kept's cache on exit, so
    # the decision taken under the lowered limit is gone afterwards.
    assert _lattice_kept(1021, 1)
    with lowered_keep_limit(1000):
        assert not _lattice_kept(1021, 1)
    assert coverage._KEPT_MEMBERS == 1 << 16 and _lattice_kept(1021, 1)


def test_deep_dual_side_is_refused_before_a_level_is_reduced(monkeypatch):
    # The kernel of RS [1032,2] over GF(65537) has full row rank 1,030, so
    # its 1,032 independent 1-subsets alone would hold 1032 * 1030^2 basis
    # cells: the level budget refuses the dual side before it reduces a
    # column. The engine has no independent-subset walk to fall back on.
    assert not hasattr(coverage, "independent_subset_profile")
    reduced = []
    monkeypatch.setattr(coverage, "_reduce_insert", lambda *args: reduced.append(args))
    C = reed_solomon(field_from_order(65537), 1032, 2)
    with pytest.raises(BudgetExceededError, match="independent 1-subsets of 1032 columns"):
        expectation_exact_dual(C)
    assert not reduced
    assert main(["expect", "--field", "65537", "--code", "rs", "--n", "1032", "--k", "2",
                 "--method", "dual"]) == 2


# 257 and 512 run the level count on uint16 elements and q-by-q tables;
# past 512, products read log tables and sums work modulo p (521, 65521),
# digit by digit (729) or by XOR (1024); past 2^16, on uint32 elements,
# products work modulo p (65537) or by digit convolution (3^11).
_LEVEL_FIELDS = (2, 3, 4, 5, 7, 8, 9, 16, 27, 32, 257, 512, 521, 729, 1024, 65521, 65537, 3**11)


@pytest.mark.parametrize("q", _LEVEL_FIELDS)
def test_level_counts_match_the_walk(q):
    # Random columns with zero and repeated ones, n < m included.
    F = field_from_order(q)
    rng = random.Random(f"levels-{q}")
    for _ in range(12):
        m, n = rng.randint(1, 5), rng.randint(1, 14)
        cols = [tuple(rng.randrange(q) for _ in range(m)) for _ in range(n)]
        cols[rng.randrange(n)] = (0,) * m
        cols[rng.randrange(n)] = cols[rng.randrange(n)]
        walk = independent_subset_profile(from_columns(F, cols)) + [0] * m
        assert coverage._level_counts(F, cols, m) == walk[: m + 1], cols


@pytest.mark.parametrize("q,n,k", [(16, 16, 8), (16, 17, 9), (9, 10, 5)])
def test_level_counts_of_mds_duals(q, n, k):
    # The dual of an MDS code is MDS: every n - k of its columns are independent.
    C = reed_solomon(field_from_order(q), n, k)
    counts = coverage._level_counts(C.field, columns_of(kernel_basis(C.generator)), n - k)
    assert counts == [comb(n, t) for t in range(n - k + 1)]
    assert _defect_sum(n, enumerate(counts[1:], 1)) == mds_bound(n, k)


@pytest.mark.parametrize(
    "maker",
    [lambda: reed_solomon(field_from_order(9), 10, 5), lambda: _random_code(2, 8, 11, seed=11)],
)
def test_level_blocks_do_not_change_counts(monkeypatch, maker):
    # 30 cells make blocks of one child at m = 5 and of 3 children at m = 3
    # (the binary [11, 8] code has a zero and a repeated column).
    C = maker()
    cols = columns_of(kernel_basis(C.generator))
    whole = coverage._level_counts(C.field, cols, C.n - C.k)
    monkeypatch.setattr(coverage, "_REDUCE_BLOCK_CELLS", 30)
    assert coverage._level_counts(C.field, cols, C.n - C.k) == whole


def test_level_budget_is_checked_before_a_level_is_reduced(monkeypatch):
    # The 15 points of GF(2)^4: level 1 reduces 15 children of 16 cells
    # each, level 2 would reduce C(15, 2) = 105 (1,680 cells).
    F = field_from_order(2)
    reduced = []
    real = coverage._reduce_insert

    def counted(basis, v, *tables):
        reduced.append(len(v))
        return real(basis, v, *tables)

    monkeypatch.setattr(coverage, "_reduce_insert", counted)
    monkeypatch.setattr(coverage, "_LEVEL_CELLS", 1000)
    with pytest.raises(BudgetExceededError, match="2-subsets of 15 columns"):
        coverage._level_counts(F, projective_points(F, 4), 4)
    assert sum(reduced) == 15


def test_widest_level_fits_the_budget():
    # RS [20,10]/GF(32): the last level reduces C(20, 10) = 184,756 children.
    C = reed_solomon(field_from_order(32), 20, 10)
    assert expectation_exact_auto(C) == mds_bound(20, 10)


def test_frozen_expectations():
    assert expectation_simplex(2, 3) == Fraction(47, 12)
    assert expectation_hamming(2, 3) == Fraction(347, 60)
    assert expectation_hamming(3, 3) == Fraction(507173, 27720)
    C = reed_solomon(field_from_order(7), 7, 3)
    assert expectation_exact(C) == Fraction(107, 30) == mds_bound(7, 3)


def test_simplex_k1_is_single_draw():
    assert expectation_simplex(5, 1) == 1


def test_closed_form_errors():
    with pytest.raises(ValueError):
        expectation_simplex(6, 2)
    with pytest.raises(ValueError):
        expectation_simplex(2, 0)
    with pytest.raises(ValueError):
        expectation_hamming(2, 1)
    with pytest.raises(ValueError):
        expectation_hamming(10, 2)


def test_exact_routes_agree(code_suite):
    for C in code_suite:
        primal = expectation_exact(C)
        assert primal == expectation_exact_dual(C)
        assert primal == expectation_exact_auto(C)
        assert primal >= mds_bound(C.n, C.k)


def test_generator_row_operations_do_not_change_expectation():
    F = field_from_order(2)
    C = hamming_code(F, 3)
    base = expectation_exact(C)
    rng = random.Random(123)
    for _ in range(50):
        A = random_invertible(rng, F, C.k)
        C2 = linear_code(mat_mul(A, C.generator))
        assert expectation_exact(C2) == base


def test_column_scaling_does_not_change_expectation():
    F = field_from_order(4)
    C = reed_solomon(F, 5, 3)
    base = expectation_exact(C)
    rng = random.Random(9)
    cols = columns_of(C.generator)
    scaled = []
    for col in cols:
        c = rng.randrange(1, F.q)
        scaled.append([F.mul(c, x) for x in col])
    C2 = linear_code(from_columns(F, scaled))
    assert expectation_exact(C2) == base


def test_identity_code_is_coupon_collector():
    F = field_from_order(3)
    C = linear_code(identity(F, 4))
    assert expectation_exact(C) == 4 * harmonic(4)
    assert expectation_exact_dual(C) == 4 * harmonic(4)


def test_zero_dimensional_code_needs_no_draws():
    F = field_from_order(2)
    C = LinearCode(F, 3, 0, zeros(F, 0, 3))
    assert expectation_exact(C) == 0
    assert simulate_trial(C, seed=1) == 0
    est = expectation_monte_carlo(C, 10, 1)
    assert (est.mean, est.min_draws, est.max_draws) == (0.0, 0, 0)


def test_zero_column_costs_draws():
    F = field_from_order(2)
    plain = linear_code(matrix(F, [[1, 0], [0, 1]]))
    padded = linear_code(matrix(F, [[1, 0, 0], [0, 1, 0]]))
    assert expectation_exact(padded) == Fraction(9, 2)
    assert expectation_exact(padded) > expectation_exact(plain)


def test_to_decimal_and_decimal_str():
    assert to_decimal(Fraction(47, 12), 10) == Decimal("3.916666667")
    assert decimal_str(Fraction(47, 12), 30) == "3.91666666666666666666666666667"
    assert decimal_str(Fraction(1, 3), 5) == "0.33333"
    assert decimal_str(Fraction(2, 3), 5) == "0.66667"
    assert decimal_str(Fraction(7), 3) == "7"
    with pytest.raises(ValueError):
        to_decimal(Fraction(1, 3), 0)


def test_decimal_rounding_is_half_even():
    assert decimal_str(Fraction(1, 4), 1) == "0.2"
    assert decimal_str(Fraction(7, 20), 1) == "0.4"
    assert decimal_str(Fraction(3, 2), 1) == "2"
    assert decimal_str(Fraction(5, 2), 1) == "2"


def test_mix64_reference_values():
    # splitmix64 finalizer: mix of 0 is 0, and the stream from seed 0 starts
    # with these published values.
    assert _mix64(0) == 0
    golden = 0x9E3779B97F4A7C15
    assert _mix64(golden) == 0xE220A8397B1DCDAF
    assert _mix64(2 * golden % 2**64) == 0x6E789E6AA1B965F4


def test_simulate_trial_is_pure_and_traced():
    C = simplex_code(field_from_order(2), 3)
    trace = []
    d = simulate_trial(C, seed=42, trial=7, trace=trace)
    assert d == len(trace)
    assert all(0 <= j < C.n for j in trace)
    assert d >= C.k
    assert simulate_trial(C, seed=42, trial=7) == d
    assert any(simulate_trial(C, seed=42, trial=t) != d for t in range(20))


def test_single_column_code_always_one_draw():
    F = field_from_order(2)
    C = linear_code(matrix(F, [[1]]))
    for t in range(10):
        assert simulate_trial(C, seed=3, trial=t) == 1


def _draws(C, seed, t0, count):
    """The lanes' draw counts of trials t0 .. t0 + count - 1, as a list."""
    return _draw_count_array(C.field, columns_of(C.generator), seed, t0, count).tolist()


def _reference_draws(C, seed, t0, count):
    """The same trials, one simulate_trial call each."""
    return [simulate_trial(C, seed=seed, trial=t) for t in range(t0, t0 + count)]


def _flat_draws(C, seed, t0, count):
    """The same trials on the code's flat table; None where the table passes a cap."""
    table = coverage._flat_table(C.field, C.columns, C.k, 1 << 20)
    if table is None:
        return None
    return _draw_count_array(C.field, C.columns, seed, t0, count, table).tolist()


def test_draw_counts_match_per_trial_keying():
    # Trial t0 + j of a batch starting at t0 = 5 is keyed as trial 5 + j.
    C = hamming_code(field_from_order(2), 3)
    assert _draws(C, seed=11, t0=5, count=4) == _reference_draws(C, seed=11, t0=5, count=4)


def _random_code(q, k, n, seed):
    """An [n, k] code over GF(q): k unit columns, one zero column, one
    repeated column and n - k - 2 random nonzero columns, in random order."""
    rng = random.Random(seed)
    cols = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    while len(cols) < n - 2:
        col = tuple(rng.randrange(q) for _ in range(k))
        if any(col):
            cols.append(col)
    cols += [rng.choice(cols), (0,) * k]
    rng.shuffle(cols)
    return linear_code(from_columns(field_from_order(q), cols))


@pytest.mark.parametrize(
    "maker",
    [
        lambda: simplex_code(field_from_order(2), 3),
        lambda: hamming_code(field_from_order(2), 3),
        lambda: reed_solomon(field_from_order(4), 5, 2),
        lambda: reed_solomon(field_from_order(9), 9, 3),
        lambda: reed_solomon(field_from_order(5), 5, 2),
        # Binary codes run the packed lanes up to k = 64 and the table lanes
        # past it.
        lambda: _random_code(2, 64, 134, seed=64),
        lambda: _random_code(2, 65, 136, seed=65),
        # A zero and a repeated column; n = 12 is not a power of two, so the
        # rejection threshold is live, while n = 16 rejects nothing.
        lambda: _random_code(2, 4, 12, seed=12),
        lambda: _random_code(2, 5, 16, seed=16),
        # In characteristic 2 the table lanes reduce by XOR instead of a
        # subtraction-table gather.
        lambda: reed_solomon(field_from_order(8), 9, 4),
        lambda: reed_solomon(field_from_order(16), 16, 8),
        # The flat table's class keys of RS [10,8]/GF(256) need 74 bits (two
        # words), and the 121 columns of the GF(3) simplex code two mask words.
        lambda: reed_solomon(field_from_order(256), 10, 8),
        lambda: simplex_code(field_from_order(3), 5),
        # Past 256 elements the flat build and the table lanes hold uint16
        # elements, by table gathers over GF(509) and by XOR over GF(512).
        lambda: reed_solomon(field_from_order(509), 9, 3),
        lambda: reed_solomon(field_from_order(512), 8, 4),
        # Past 512 elements the field's vector arithmetic reads log tables:
        # a prime field sums modulo p, GF(1024) by XOR and GF(729) digit by
        # digit.
        lambda: reed_solomon(field_from_order(1021), 8, 3),
        lambda: reed_solomon(field_from_order(1024), 12, 4),
        lambda: reed_solomon(field_from_order(729), 9, 3),
        # Past 2^16 elements products work modulo p or by digit convolution.
        lambda: reed_solomon(field_from_order(65537), 12, 4),
        lambda: reed_solomon(field_from_order(3**11), 10, 3),
    ],
)
def test_vector_and_scalar_draws_agree(maker):
    C = maker()
    count = 300 if C.k < 16 else 12  # the scalar reference is slow at k = 64
    reference = _reference_draws(C, 2024, 0, count)
    assert _draws(C, 2024, 0, count) == reference
    # Only the binary codes with k = 64 and 65 have too many flats.
    assert _flat_draws(C, 2024, 0, count) == (reference if C.k < 64 else None)


@pytest.mark.parametrize(
    "maker",
    [lambda: reed_solomon(field_from_order(16), 16, 8), lambda: hamming_code(field_from_order(2), 4)],
)
def test_lane_blocks_do_not_change_counts(monkeypatch, maker):
    # 200 cells split the 400 trials into blocks of 3 table lanes at k = 8
    # (k * k cells each), of 18 packed lanes at k = 11 (k cells each) and of
    # 200 flat lanes (one cell each). 3 * n * k cells make the flat table's
    # build read three flats at a time, so every level past rank 0 spans
    # several blocks, from field elements for RS [16,8] and from packed
    # words for Hamming [15,11].
    C = maker()
    whole = _draws(C, seed=8, t0=3, count=400)
    table = coverage._flat_table(C.field, C.columns, C.k, 1 << 20)
    assert _flat_draws(C, seed=8, t0=3, count=400) == whole
    monkeypatch.setattr(coverage, "_LANE_CELLS", 200)
    assert _draws(C, seed=8, t0=3, count=400) == whole
    assert _flat_draws(C, seed=8, t0=3, count=400) == whole
    monkeypatch.setattr(coverage, "_REDUCE_BLOCK_CELLS", 3 * C.n * C.k)
    assert np.array_equal(coverage._flat_table(C.field, C.columns, C.k, 1 << 20), table)


@pytest.mark.parametrize(
    "maker",
    [
        lambda: hamming_code(field_from_order(2), 3),  # packed lanes
        lambda: reed_solomon(field_from_order(9), 9, 3),  # table lanes
        lambda: simplex_code(field_from_order(3), 3),  # table lanes
    ],
)
def test_rejected_draws_retry_alike_in_every_kernel(monkeypatch, maker):
    # A 64-bit value is rejected with probability (2^64 mod n) / 2^64, so no
    # real stream retries. Mapping every even mixer output to 2^64 - 1,
    # which lies past the threshold whenever 2^64 mod n != 0 (n = 7, 9, 13
    # here), makes about half of all draws retry, some several times.
    C = maker()
    assert (1 << 64) % C.n
    plain = _reference_draws(C, 21, 0, 200)
    real, real_np = coverage._mix64, coverage._mix64_np

    def mix(x):
        v = real(x)
        return v if v & 1 else coverage._MASK64

    def mix_np(x, scratch=None):
        v = real_np(x, scratch)
        return np.where(v & np.uint64(1) == 1, v, np.uint64(coverage._MASK64))

    monkeypatch.setattr(coverage, "_mix64", mix)
    monkeypatch.setattr(coverage, "_mix64_np", mix_np)
    reference = _reference_draws(C, 21, 0, 200)
    assert reference != plain
    assert _draws(C, 21, 0, 200) == reference
    assert _flat_draws(C, 21, 0, 200) == reference
    # An empty batch is an empty int64 array on every kernel and for k = 0.
    F = C.field
    for table in (None, coverage._flat_table(F, C.columns, C.k, 1 << 20)):
        empty = _draw_count_array(F, C.columns, 21, 0, 0, table)
        assert empty.dtype == np.int64 and empty.shape == (0,)
    empty = _draw_count_array(F, ((),) * 3, 21, 0, 0)
    assert empty.dtype == np.int64 and empty.shape == (0,)


def _flat_ranks(table):
    """The rank of every flat of a flat table, from the moves out of flat 0."""
    ranks = [0] * len(table)
    for f, row in enumerate((table // table.shape[1]).tolist()):
        for g in row:
            if g != f:
                ranks[g] = ranks[f] + 1
    return ranks


@pytest.mark.parametrize("q,k", [(2, 3), (2, 4), (3, 3), (3, 4), (4, 3), (3, 5)])
def test_simplex_flats_are_the_subspaces(q, k):
    # Every subspace of GF(q)^k is spanned by the points it holds.
    C = simplex_code(field_from_order(q), k)
    ranks = Counter(_flat_ranks(coverage._flat_table(C.field, C.columns, k, 1 << 20)))
    assert [ranks[d] for d in range(k + 1)] == [coverage._gaussian(k, d, q) for d in range(k + 1)]


@pytest.mark.parametrize("q,n,k", [(16, 16, 8), (256, 10, 8), (9, 9, 3), (8, 8, 3), (5, 6, 2)])
def test_mds_flats_are_the_small_subsets(q, n, k):
    # Every t < k columns of an MDS code are independent and close to
    # themselves, so the flats are the t-subsets for t < k and the whole set.
    C = reed_solomon(field_from_order(q), n, k)
    table = coverage._flat_table(C.field, C.columns, k, 1 << 20)
    assert len(table) == sum(comb(n, t) for t in range(k)) + 1
    assert Counter(_flat_ranks(table)) == {**{t: comb(n, t) for t in range(k)}, k: 1}


def test_flat_caps_are_checked_before_a_level_is_reduced(monkeypatch):
    # Level r holds sizes[r] flats of rank r, and a flat's residuals count
    # n * k cells. Residuals are built for the flats of ranks 1 .. k - 2
    # only: a hyperplane closes to the top flat with every column outside
    # it. RS [8,3]/GF(9) builds from field elements, the binary [12,4] code
    # from packed words.
    for C in (reed_solomon(field_from_order(9), 8, 3), _random_code(2, 4, 12, seed=12)):
        with monkeypatch.context() as patch:
            _check_flat_caps(patch, C)


def _check_flat_caps(patch, C):
    F, cols, k, cells = C.field, C.columns, C.k, C.n * C.k
    table = coverage._flat_table(F, cols, k, 1 << 20)
    sizes = [count for _, count in sorted(Counter(_flat_ranks(table)).items())]
    reduced = []
    real = coverage._flat_children

    def counted(resid, parent, *args):
        reduced.append(len(parent))
        return real(resid, parent, *args)

    patch.setattr(coverage, "_flat_children", counted)
    assert np.array_equal(coverage._flat_table(F, cols, k, len(table)), table)
    assert sum(reduced) == sum(sizes[1:k - 1])
    for r in range(1, k + 1):  # one flat too many at level r
        reduced.clear()
        assert coverage._flat_table(F, cols, k, sum(sizes[:r + 1]) - 1) is None
        assert sum(reduced) == sum(sizes[1:min(r, k - 1)])
    # One residual cell too many at level r, and so at the first level t
    # that holds as many flats.
    for r in range(k):
        reduced.clear()
        patch.setattr(coverage, "_FLAT_CELLS", sizes[r] * cells - 1)
        assert coverage._flat_table(F, cols, k, len(table)) is None
        t = next(t for t in range(r + 1) if sizes[t] >= sizes[r])
        assert sum(reduced) == sum(sizes[1:min(t, k - 1)])


@pytest.mark.parametrize("maker", [lambda: reed_solomon(field_from_order(9), 8, 3),
                                   lambda: _random_code(2, 4, 12, seed=12)])
def test_past_either_flat_cap_the_lanes_give_the_same_estimate(monkeypatch, maker):
    C = maker()
    table = coverage._flat_table(C.field, C.columns, C.k, 1 << 20)
    sizes = sorted(Counter(_flat_ranks(table)).items())
    built = []
    real = coverage._flat_table
    monkeypatch.setattr(coverage, "_flat_table", lambda *args: built.append(real(*args)) or built[-1])

    def check(trials, has_table):
        built.clear()
        est = expectation_monte_carlo(C, trials=trials, seed=13)
        assert [t is not None for t in built] == [has_table]
        counts = _draws(C, seed=13, t0=0, count=trials)
        assert est.mean == sum(counts) / trials
        assert (est.min_draws, est.max_draws) == (min(counts), max(counts))
        return est

    # With as many trials as flats the table is built; one level short of
    # the trials, or past the cell cap at any level, it is not.
    whole = check(len(table), True)
    total = 0
    for r, size in sizes:
        total += size
        if r:
            check(total - 1, False)
    for r, size in sizes[:-1]:
        monkeypatch.setattr(coverage, "_FLAT_CELLS", size * C.n * C.k - 1)
        assert check(len(table), False) == whole


def test_flat_build_peak_stays_below_a_lane_chunk():
    # tracemalloc sees numpy's buffers; the field's arithmetic is built
    # first. RS [16,8] builds from field elements and runs table lanes
    # without the table, Hamming [15,11] builds from packed words and runs
    # packed lanes.
    for C, flats in ((reed_solomon(field_from_order(16), 16, 8), 26_334),
                     (hamming_code(field_from_order(2), 4), 24_968)):
        F, cols = C.field, C.columns
        F.vec_ops()
        tracemalloc.start()
        try:
            _draw_count_array(F, cols, 1, 0, coverage._CHUNK)
            lanes = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            table = coverage._flat_table(F, cols, C.k, 200_000)
            build = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == flats
        assert build <= lanes, (C, build, lanes)


def _vector_results(F, C):
    """Every numpy routine over F on the columns of C, a [q, 3] code: the
    histogram, the level count, the flat table and the flat and table lanes."""
    table = coverage._flat_table(F, C.columns, C.k, 1 << 20)
    return (subspace_histogram(F, C.columns, C.k), coverage._level_counts(F, C.columns, C.k),
            table.tolist(), _draw_count_array(F, C.columns, 7, 0, 200, table).tolist(),
            _draw_count_array(F, C.columns, 7, 0, 200).tolist())


@pytest.mark.parametrize("q", [5, 8])
def test_every_vector_routine_reads_the_fields_one_arithmetic(monkeypatch, q):
    # Once F.vec_ops() is built, no routine reads the op tables again: with
    # op_tables raising, each gives what an equal fresh field gives. A
    # pickled field builds its own (_fan_out's workers are forked and read
    # the caller's field, but a FieldSpec still round-trips through pickle).
    C = reed_solomon(field_from_order(q), q, 3)
    expected = _vector_results(field_from_order(q), C)
    assert expected[3] == expected[4] == [simulate_trial(C, 7, t) for t in range(200)]
    C.field.vec_ops()

    def refuse(self):
        raise RuntimeError("the op tables were read again")

    monkeypatch.setattr(FieldSpec, "op_tables", refuse)
    assert _vector_results(C.field, C) == expected
    with pytest.raises(RuntimeError, match="read again"):
        pickle.loads(pickle.dumps(C.field)).vec_ops()


@pytest.mark.parametrize("q,k,n,seed", [(2, 5, 12, 1), (3, 4, 10, 2), (4, 3, 9, 3), (9, 2, 7, 4),
                                        (9, 3, 8, 5), (2, 1, 4, 6), (2, 2, 6, 7), (2, 6, 20, 8),
                                        (2, 4, 70, 9)])
def test_flat_table_matches_brute_force_closures(monkeypatch, q, k, n, seed):
    # Each code has a zero column and a repeated column; the binary ones
    # build from packed residual words, k = 1 from no residuals at all, and
    # the 70 columns need two mask words. The closure of a column set is
    # every column whose addition leaves its span_basis rank unchanged, that
    # is, that eliminate reduces to zero against its span_basis; flat f
    # holds the columns j with T[f, j] = f.
    C = _random_code(q, k, n, seed)
    F, cols = C.field, C.columns

    def rank(idx):
        return len(span_basis(F, [cols[i] for i in idx]))

    closures = {}

    def closure(idx):
        key = frozenset(idx)
        if key not in closures:
            basis = span_basis(F, [cols[i] for i in key])
            closures[key] = frozenset(i for i in range(n) if eliminate(F, basis, cols[i]) is None)
        return closures[key]

    table = coverage._flat_table(F, cols, k, 1 << 20)
    assert table.dtype == np.int32 and table.shape[1] == n and not (table % n).any()
    flats = table // n
    members = [frozenset(np.flatnonzero(row == f).tolist()) for f, row in enumerate(flats)]
    assert len(set(members)) == len(members)
    assert members[0] == closure([]) and members[-1] == frozenset(range(n))
    for f, flat in enumerate(members):
        for j in range(n):
            assert members[flats[f, j]] == closure([*flat, j]), (f, j)
    # Every flat is reached from the closure of nothing, and the flats are
    # numbered level by level.
    seen, todo = {members[0]}, [members[0]]
    while todo:
        flat = todo.pop()
        for j in range(n):
            reached = closure([*flat, j])
            if reached not in seen:
                seen.add(reached)
                todo.append(reached)
    assert seen == set(members)
    ranks = [rank(flat) for flat in members]
    assert ranks == sorted(ranks)
    # Inside a level the flats are ordered by their column masks, the
    # 64-column words compared first to last.
    words = [[sum(1 << (j - w) for j in flat if w <= j < w + 64) for w in range(0, n, 64)]
             for flat in members]
    assert all(words[f] < words[f + 1] for f in range(len(members) - 1) if ranks[f] == ranks[f + 1])
    monkeypatch.setattr(coverage, "_REDUCE_BLOCK_CELLS", 30)
    assert np.array_equal(coverage._flat_table(F, cols, k, 1 << 20), table)


@pytest.mark.parametrize(
    "maker,kernel",
    [
        (lambda: simplex_code(field_from_order(2), 3), "flat"),
        (lambda: _random_code(2, 4, 12, seed=12), "packed"),
        (lambda: reed_solomon(field_from_order(9), 8, 3), "table"),
    ],
)
def test_monte_carlo_estimate_does_not_depend_on_the_split(monkeypatch, maker, kernel):
    C = maker()
    if kernel != "flat":
        monkeypatch.setattr(coverage, "_flat_table", lambda *args: None)
    assert (coverage._flat_table(C.field, C.columns, C.k, 100) is not None) == (kernel == "flat")
    whole = expectation_monte_carlo(C, trials=100, seed=5)
    counts = _draws(C, seed=5, t0=0, count=100)
    assert whole.mean == sum(counts) / 100
    assert (whole.min_draws, whole.max_draws) == (min(counts), max(counts))
    tasks = []
    real = coverage._fan_out
    monkeypatch.setattr(coverage, "_fan_out", lambda fn, ts, j: tasks.append(len(ts)) or real(fn, ts, j))
    # Blocks of 7 lanes: 15 chunks, one task per worker, each task several
    # blocks and the last block short.
    monkeypatch.setattr(coverage, "_CHUNK", 7)
    for jobs in (1, 2, 3):
        assert expectation_monte_carlo(C, trials=100, seed=5, jobs=jobs) == whole
    assert tasks == [1, 2, 3]


def test_one_chunk_of_trials_starts_no_pool(monkeypatch):
    C = simplex_code(field_from_order(2), 3)
    expected = [expectation_monte_carlo(C, trials=t, seed=9) for t in (1, coverage._CHUNK)]

    def no_fork():
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(coverage.os, "fork", no_fork)
    assert [expectation_monte_carlo(C, trials=t, seed=9, jobs=2) for t in (1, coverage._CHUNK)] == expected


def test_monte_carlo_memory_stays_within_a_few_lane_blocks():
    # The counts of all trials would take 8 bytes each; a task reduces each
    # block of _CHUNK lanes before it draws the next, through lane arrays
    # allocated once.
    C = simplex_code(field_from_order(2), 3)
    trials = 1_000_000
    expectation_monte_carlo(C, trials=10, seed=1)  # builds the field's tables
    tracemalloc.start()
    try:
        expectation_monte_carlo(C, trials=trials, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 16 * 8 * coverage._CHUNK
    assert bound < 8 * trials
    assert peak < bound, peak


@pytest.mark.parametrize("spec,trials", [(("--field", "16", "--code", "rs", "--n", "16", "--k", "8"), 40_000),
                                         (("--field", "3", "--code", "simplex", "--k", "4"), 70_000)])
def test_simulate_bytes_do_not_depend_on_jobs_or_kernel(monkeypatch, capsys, spec, trials):
    # Two or three chunks, so at --jobs 2 the caller and one forked worker
    # each draw from the caller's flat table.
    argv = ["simulate", *spec, "--trials", str(trials), "--seed", "3"]
    outs = []
    for jobs in ("1", "2"):
        assert main(argv + ["--jobs", jobs]) == 0
        outs.append(capsys.readouterr().out)
    monkeypatch.setattr(coverage, "_flat_table", lambda *args: None)
    assert main(argv) == 0
    outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]


def test_simulate_trial_reads_the_columns_once_per_code(monkeypatch):
    C = simplex_code(field_from_order(3), 3)
    calls = []
    real = codes.columns_of
    monkeypatch.setattr(codes, "columns_of", lambda M: calls.append(M) or real(M))
    assert [simulate_trial(C, seed=5, trial=t) for t in range(20)] == _draws(C, 5, 0, 20)
    assert len(calls) == 1


def test_expectation_exact_reads_the_columns_once_per_code(monkeypatch):
    C = simplex_code(field_from_order(3), 3)
    calls = []
    for module in (codes, coverage):
        real = module.columns_of
        monkeypatch.setattr(module, "columns_of", lambda M, real=real: calls.append(M) or real(M))
    assert {expectation_exact(C) for _ in range(5)} == {expectation_simplex(3, 3)}
    assert len(calls) == 1


def test_the_subset_counters_read_the_columns_once_per_code(monkeypatch):
    C = reed_solomon(field_from_order(5), 5, 2)
    calls = []
    real = codes.columns_of
    monkeypatch.setattr(codes, "columns_of", lambda M: calls.append(M) or real(M))
    assert [shortened_dim_count(C, 0, s).value for s in range(6)] == [0, 0, 10, 10, 5, 1]
    assert [information_set_count(C, s).value for s in range(6)] == information_set_profile(C)
    assert shortened_subcode_dim(C, [0, 1, 2]) == 0
    assert shortened_subcode_dim(C, [0, 1, 2, 3]) == 1
    assert len(calls) == 1


def test_unkept_primal_side_with_n_minus_k_above_k_runs_the_walk(monkeypatch):
    # The subspaces of GF(16)^3 hold 78,353 member vectors, past the keep
    # limit, and n - k > k on both codes: expectation_exact walks.
    F = field_from_order(16)
    assert not _lattice_kept(16, 3)
    calls = []
    real = coverage.information_set_profile
    monkeypatch.setattr(coverage, "information_set_profile", lambda *args: calls.append(args) or real(*args))
    assert expectation_exact(reed_solomon(F, 8, 3)) == mds_bound(8, 3)
    rng = random.Random(16)
    cols = [tuple(rng.randrange(16) for _ in range(3)) for _ in range(8)]
    cols.insert(3, (0, 0, 0))
    cols.append(cols[1])
    C = linear_code(from_columns(F, cols))
    n, k = C.n, C.k
    brute = _defect_sum(n, ((n - s, information_set_count(C, s).value) for s in range(k, n)))
    assert expectation_exact(C) == expectation_exact_dual(C) == brute
    assert len(calls) == 2


def _tail_terms(C):
    """(coefficient, ratio) pairs with P(T > t) = sum coefficient * ratio^t.

    From the generator-side histogram: P(T > t) = -sum_{d<k} h[(d, n_U)]
    * mu(k - d) * (n_U / n)^t.
    """
    F, n, k, q = C.field, C.n, C.k, C.field.q
    hist = subspace_histogram(F, columns_of(C.generator), k)
    return [(-count * coverage._mobius(k - d, q), Fraction(inside, n))
            for (d, inside), count in hist.items() if d < k]


def _tail(terms, t):
    return sum(c * r**t for c, r in terms)


@pytest.mark.parametrize(
    "C", [simplex_code(field_from_order(2), 3), _random_code(2, 4, 12, seed=12)], ids=["simplex", "12-4"]
)
def test_draws_follow_the_exact_distribution(C):
    from scipy.stats import chi2

    F, n, k = C.field, C.n, C.k
    cols = columns_of(C.generator)
    terms = _tail_terms(C)
    # The tail against a brute-force count of all n^t draw sequences.
    for t in range(5):
        short = sum(len(span_basis(F, [cols[j] for j in seq], k)) < k
                    for seq in product(range(n), repeat=t))
        assert _tail(terms, t) == Fraction(short, n**t)
    # Each term is geometric, so sum_t P(T > t) is a sum of c / (1 - r).
    assert sum(c / (1 - r) for c, r in terms) == expectation_exact(C)
    # Chi-square of 200k draw counts against the exact pmf, bins holding at
    # least 20 expected trials and the last bin taking the whole tail. At
    # the 1e-4 level a correct sampler fails with probability 1e-4 per code.
    trials = 200_000
    counts = Counter(_draws(C, seed=77, t0=0, count=trials))
    observed, expected = [], []
    t = k
    while trials * float(_tail(terms, t)) >= 20:
        observed.append(counts[t])
        expected.append(trials * float(_tail(terms, t - 1) - _tail(terms, t)))
        t += 1
    observed.append(sum(c for s, c in counts.items() if s >= t))
    expected.append(trials * float(_tail(terms, t - 1)))
    assert sum(observed) == trials
    stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    assert chi2.sf(stat, len(observed) - 1) > 1e-4


def test_large_field_runs_the_vector_lanes():
    # Past 2^16 elements the field's vector arithmetic builds the flat table
    # (1 + 5 + 1 flats) and runs the table lanes, each equal to the reference.
    C = reed_solomon(field_from_order(65537), 5, 2)
    assert len(coverage._flat_table(C.field, C.columns, C.k, 1 << 20)) == 7
    assert _draws(C, seed=1, t0=0, count=20) == _reference_draws(C, seed=1, t0=0, count=20)
    assert _flat_draws(C, seed=1, t0=0, count=20) == _reference_draws(C, seed=1, t0=0, count=20)


def test_monte_carlo_summary_statistics():
    C = simplex_code(field_from_order(2), 3)
    counts = _draws(C, seed=5, t0=0, count=500)
    est = expectation_monte_carlo(C, trials=500, seed=5)
    assert est.mean == sum(counts) / 500
    assert est.min_draws == min(counts) and est.max_draws == max(counts)
    assert est.min_draws >= C.k
    se = statistics.stdev(counts) / 500**0.5
    assert abs(est.std_error - se) < 1e-12
    assert est.as_dict()["trials"] == 500


def test_monte_carlo_single_trial():
    C = simplex_code(field_from_order(2), 3)
    est = expectation_monte_carlo(C, trials=1, seed=0)
    assert est.std_error == 0.0
    assert est.mean == simulate_trial(C, seed=0, trial=0)


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("count", [1, 2, 3, 7])
def test_fan_out_keeps_task_order(jobs, count):
    # The caller runs share 0 of tasks[i::j] and workers the rest; results
    # come back in task order whether count is below, equal to or not a
    # multiple of jobs.
    tasks = list(range(-count, 0))
    assert coverage._fan_out(abs, tasks, jobs) == [abs(t) for t in tasks]


@contextmanager
def _no_child_left(seconds=30):
    """Fail the block if it runs past `seconds` (a hung fan-out), and check
    on exit that this process has no child left, running or unreaped."""

    def too_long(signum, frame):
        raise TimeoutError(f"the fan-out ran past {seconds} s")

    saved = signal.signal(signal.SIGALRM, too_long)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, saved)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fails_on_task_one(t):
    if t == 1:
        raise BudgetExceededError(f"task {t} is over budget")
    return t


def test_fan_out_raises_a_workers_exception_with_its_type():
    # Task 1 runs in the worker of share 1; its exception crosses the pipe
    # and is raised in the caller, after the worker is reaped.
    with _no_child_left(), pytest.raises(BudgetExceededError, match="task 1 is over budget"):
        coverage._fan_out(_fails_on_task_one, [0, 1, 2], 2)


@pytest.mark.parametrize("leave,status", [(lambda: os._exit(7), 7),
                                          (lambda: os.kill(os.getpid(), signal.SIGKILL), -9)],
                         ids=["exit", "killed"])
def test_fan_out_worker_without_a_result_raises(leave, status):
    # Both workers end without writing a result: by os._exit, or killed.
    # Tasks reach them by fork, so fn may be a closure over this pid.
    caller = os.getpid()

    def fn(t):
        if os.getpid() != caller:
            leave()
        return t

    with _no_child_left(), pytest.raises(RuntimeError, match=rf"left no result \(exit status {status}\)"):
        coverage._fan_out(fn, [0, 1, 2], 3)


def _caller_fails_workers_sleep(t):
    if t == 0:
        raise ValueError("the caller's share failed")
    time.sleep(60)
    return t


def test_fan_out_kills_its_workers_when_the_callers_share_raises():
    # The caller runs task 0 and raises at once; the two workers would sleep
    # for a minute, so the fan-out ends inside the guard's 30 s only if it
    # kills them.
    with _no_child_left(), pytest.raises(ValueError, match="caller's share failed"):
        coverage._fan_out(_caller_fails_workers_sleep, [0, 1, 2], 3)


def test_monte_carlo_is_job_count_invariant():
    # More than one chunk (chunk size 32768), compared across process counts.
    C = simplex_code(field_from_order(2), 3)
    a = expectation_monte_carlo(C, trials=70000, seed=31, jobs=1)
    for jobs in (2, 3):  # three chunks: two tasks at jobs 2, three at jobs 3
        assert expectation_monte_carlo(C, trials=70000, seed=31, jobs=jobs) == a
    assert isinstance(a, McEstimate)


def test_monte_carlo_extension_field_is_job_count_invariant():
    # Two chunks over GF(16): the forked worker draws over the caller's
    # field, modulus included, and sums exactly as the caller would.
    C = reed_solomon(field_from_order(16), 16, 8)
    a = expectation_monte_carlo(C, trials=33000, seed=9, jobs=1)
    b = expectation_monte_carlo(C, trials=33000, seed=9, jobs=2)
    assert a == b
    assert a.min_draws >= C.k


def test_monte_carlo_scalar_path_above_table_limit():
    # GF(1024) is past the 512-element operation tables: its lanes read log
    # tables.
    C = reed_solomon(field_from_order(1024), 12, 4)
    counts = _draws(C, seed=4, t0=0, count=12)
    assert counts == _reference_draws(C, seed=4, t0=0, count=12)
    est = expectation_monte_carlo(C, trials=12, seed=4)
    assert est.mean == sum(counts) / 12
    assert (est.min_draws, est.max_draws) == (min(counts), max(counts))


def test_monte_carlo_tracks_exact_value():
    C = simplex_code(field_from_order(2), 3)
    est = expectation_monte_carlo(C, trials=40000, seed=7)
    exact = float(Fraction(47, 12))
    assert abs(est.mean - exact) <= 4 * est.std_error


def test_monte_carlo_validation():
    C = simplex_code(field_from_order(2), 3)
    with pytest.raises(ValueError):
        expectation_monte_carlo(C, trials=0, seed=0)
    with pytest.raises(ValueError):
        expectation_monte_carlo(C, trials=10, seed=0, jobs=0)


def test_trial_key_avalanche():
    # Neighbouring trials must not produce neighbouring keys.
    keys = [_trial_key(0, t) for t in range(100)]
    assert len(set(keys)) == 100
    diffs = [bin(a ^ b).count("1") for a, b in zip(keys, keys[1:])]
    assert min(diffs) > 10


# Property tests over small random generators. A generator is drawn column
# by column (random, zero, or a copy of an earlier column) and reduced to a
# basis of its row space, so any column matroid of rank at most 4 on up to 8
# columns over GF(2), GF(3), GF(4), GF(8) and GF(9) can occur, rank 0 included.

_FIELDS = {q: field_from_order(q) for q in (2, 3, 4, 8, 9)}
_PROPERTY = settings(deadline=None, max_examples=60, database=None)


@st.composite
def _codes(draw):
    F = _FIELDS[draw(st.sampled_from(sorted(_FIELDS)))]
    k = draw(st.integers(1, 4))
    cols = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("random", "zero", "repeat")))
        if kind == "zero":
            cols.append((0,) * k)
        elif kind == "repeat" and cols:
            cols.append(draw(st.sampled_from(cols)))
        else:
            cols.append(tuple(draw(st.lists(st.integers(0, F.q - 1), min_size=k, max_size=k))))
    return linear_code(row_space_canonical(from_columns(F, cols)))


@_PROPERTY
@given(_codes())
def test_property_exact_routes_agree(C):
    primal = expectation_exact(C)
    assert expectation_exact_dual(C) == primal
    assert expectation_exact_auto(C) == primal


@_PROPERTY
@given(_codes(), st.data())
def test_property_expectation_is_invariant(C, data):
    F = C.field
    order = data.draw(st.permutations(range(C.n)))
    scales = data.draw(st.lists(st.integers(1, F.q - 1), min_size=C.n, max_size=C.n))
    A = random_invertible(data.draw(st.randoms(use_true_random=False)), F, C.k)
    cols = columns_of(C.generator)
    moved = [[F.mul(c, x) for x in cols[j]] for j, c in zip(order, scales)]
    G = mat_mul(A, from_columns(F, moved))
    assert expectation_exact_auto(linear_code(G)) == expectation_exact_auto(C)


@_PROPERTY
@given(_codes(), st.integers(0, 2**64 - 1), st.integers(0, 10**6))
def test_property_scalar_and_vector_draws_agree(C, seed, t0):
    assert _draws(C, seed, t0, 25) == _reference_draws(C, seed, t0, 25)


@_PROPERTY
@given(_codes())
@example(linear_code(identity(_FIELDS[3], 3)))
@example(linear_code(identity(_FIELDS[8], 1)))
def test_property_lattice_readers_match_the_walks(C):
    # Both readers against the subset walks they replace, k = n included,
    # on every side whose lattice is kept: at n <= 8 over GF(9) the lattice
    # of GF(9)^8 alone would have about 10^15 members.
    F, n, k, q = C.field, C.n, C.k, C.field.q
    counts = information_set_profile(C)
    walk = _defect_sum(n, ((n - s, counts[s]) for s in range(k, n)))
    if _lattice_kept(q, k):
        assert _primal_reader(subspace_histogram(F, columns_of(C.generator), k), n, k, q) == walk
    if _lattice_kept(q, n - k):
        H = kernel_basis(C.generator)
        counts = independent_subset_profile(H)
        terms = _dual_reader(subspace_histogram(F, columns_of(H), n - k), n - k, q)
        assert terms == [(t, counts[t]) for t in range(1, n - k + 1)]
        assert _defect_sum(n, terms) == walk
