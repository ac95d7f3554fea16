import random
import statistics
from decimal import Decimal
from fractions import Fraction
from math import comb

import pytest

from conftest import random_invertible
from coverdepth.codes import (
    LinearCode,
    hamming_code,
    linear_code,
    reed_solomon,
    simplex_code,
)
from coverdepth.coverage import (
    McEstimate,
    _draw_counts,
    _mix64,
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
    to_decimal,
)
from coverdepth.gf import field_from_order
from coverdepth.matrix import columns_of, from_columns, identity, mat_mul, matrix, zeros


def test_harmonic_basics():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(7) == Fraction(363, 140)
    assert harmonic(10) - harmonic(9) == Fraction(1, 10)
    with pytest.raises(ValueError):
        harmonic(-1)


def test_harmonic_beyond_cache():
    # 8192 is the incremental cache limit; the two routes must agree across it.
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


def test_mds_bound_errors():
    with pytest.raises(ValueError):
        mds_bound(0, 0)
    with pytest.raises(ValueError):
        mds_bound(5, 6)
    with pytest.raises(ValueError):
        mds_bound(5, -1)


SIMPLEX_GRID = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)]


@pytest.mark.parametrize("q,k", SIMPLEX_GRID)
def test_simplex_closed_form_matches_exact(q, k):
    C = simplex_code(field_from_order(q), k)
    assert expectation_simplex(q, k) == expectation_exact(C)


HAMMING_GRID = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]


@pytest.mark.parametrize("q,r", HAMMING_GRID)
def test_hamming_closed_form_matches_exact(q, r):
    C = hamming_code(field_from_order(q), r)
    value = expectation_hamming(q, r)
    assert value == expectation_exact_dual(C)
    if C.n <= 13:
        assert value == expectation_exact(C)


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


def test_draw_counts_match_per_trial_keying():
    C = hamming_code(field_from_order(2), 3)
    cols = columns_of(C.generator)
    got = _draw_counts(C.field, cols, C.n, C.k, seed=11, t0=5, count=4, force_scalar=True)
    want = [simulate_trial(C, seed=11, trial=5 + j) for j in range(4)]
    assert got == want


@pytest.mark.parametrize(
    "maker",
    [
        lambda: simplex_code(field_from_order(2), 3),
        lambda: hamming_code(field_from_order(2), 3),
        lambda: reed_solomon(field_from_order(4), 5, 2),
        lambda: reed_solomon(field_from_order(9), 9, 3),
        lambda: reed_solomon(field_from_order(5), 5, 2),
    ],
)
def test_vector_and_scalar_draws_agree(maker):
    C = maker()
    cols = columns_of(C.generator)
    fast = _draw_counts(C.field, cols, C.n, C.k, seed=2024, t0=0, count=300)
    slow = _draw_counts(C.field, cols, C.n, C.k, seed=2024, t0=0, count=300, force_scalar=True)
    assert fast == slow


def test_large_field_falls_back_to_scalar():
    F = field_from_order(1021)
    C = reed_solomon(F, 5, 2)
    cols = columns_of(C.generator)
    fast = _draw_counts(F, cols, C.n, C.k, seed=1, t0=0, count=20)
    slow = [simulate_trial(C, seed=1, trial=t) for t in range(20)]
    assert fast == slow


def test_monte_carlo_summary_statistics():
    C = simplex_code(field_from_order(2), 3)
    cols = columns_of(C.generator)
    counts = _draw_counts(C.field, cols, C.n, C.k, seed=5, t0=0, count=500)
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


def test_monte_carlo_is_job_count_invariant():
    # More than one chunk (chunk size 32768), compared across process counts.
    C = simplex_code(field_from_order(2), 3)
    a = expectation_monte_carlo(C, trials=70000, seed=31, jobs=1)
    b = expectation_monte_carlo(C, trials=70000, seed=31, jobs=3)
    assert a == b
    assert isinstance(a, McEstimate)


def test_monte_carlo_extension_field_is_job_count_invariant():
    # Two chunks over GF(16): the worker processes must rebuild the same
    # field, modulus included, from the pickled FieldSpec.
    C = reed_solomon(field_from_order(16), 16, 8)
    a = expectation_monte_carlo(C, trials=33000, seed=9, jobs=1)
    b = expectation_monte_carlo(C, trials=33000, seed=9, jobs=2)
    assert a == b
    assert a.min_draws >= C.k


def test_monte_carlo_scalar_path_above_table_limit():
    # GF(1024) is past the 512-element operation tables, so every trial runs
    # the scalar engine.
    C = reed_solomon(field_from_order(1024), 12, 4)
    cols = columns_of(C.generator)
    counts = _draw_counts(C.field, cols, C.n, C.k, seed=4, t0=0, count=12)
    assert counts == [simulate_trial(C, seed=4, trial=t) for t in range(12)]
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
