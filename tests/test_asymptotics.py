import math
from decimal import Decimal
from fractions import Fraction

import pytest

from coverdepth.asymptotics import (
    VANISHING_RATE_LIMIT,
    GapReport,
    SeriesLimit,
    binary_hamming_gap,
    binary_hamming_gap_coefficient,
    binary_hamming_ratio_bound,
    gap_grid,
    grid_csv,
    hamming_gap,
    hamming_gap_bound,
    mds_rate_limit,
    simplex_gap,
    simplex_gap_series_limit,
)
from coverdepth.coverage import InvariantViolation, harmonic, to_decimal
from coverdepth.gf import field_from_order

F2 = field_from_order(2)


def test_rate_limit_values():
    assert math.isclose(mds_rate_limit(0.5), 2 * math.log(2))
    assert math.isclose(mds_rate_limit(Fraction(1, 2)), 2 * math.log(2))
    # The limit tends to 1 as the rate vanishes.
    assert abs(mds_rate_limit(1e-3) - 1.0) < 1e-3
    assert VANISHING_RATE_LIMIT == 1.0
    assert mds_rate_limit(0.9) > mds_rate_limit(0.5) > mds_rate_limit(0.1)


def test_rate_limit_rejects_degenerate_rates():
    for bad in (0, 1, -0.5, 1.5):
        with pytest.raises(ValueError):
            mds_rate_limit(bad)


def test_simplex_gap_small_case():
    rep = simplex_gap(F2, 3)
    assert (rep.q, rep.k_or_r, rep.n) == (2, 3, 7)
    assert rep.exact_expectation == Fraction(47, 12)
    assert rep.bound == Fraction(107, 30)
    assert rep.gap == Fraction(7, 20)
    assert rep.predicted_leading_term == Decimal(1)


def test_simplex_gap_warns_below_k3():
    with pytest.warns(UserWarning):
        rep = simplex_gap(F2, 2)
    assert rep.predicted_leading_term is None
    assert rep.gap >= 0


def test_simplex_gap_tracks_inverse_q():
    # (q - 1) * gap tends to 1 as q grows at fixed k = 3; the deviation
    # shrinks by roughly half per doubling of q.
    devs = []
    for q in (4, 8, 16, 32, 64):
        rep = simplex_gap(field_from_order(q), 3)
        devs.append(abs(float(rep.gap * (q - 1)) - 1.0))
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 0.05


def test_simplex_series_limit_q2():
    lim = simplex_gap_series_limit(F2, Fraction(1, 10**12))
    assert isinstance(lim, SeriesLimit)
    assert lim.terms == 41
    assert abs(float(lim.value) - 1.6066951524152917) < 1e-11


def test_simplex_series_limit_q3():
    lim = simplex_gap_series_limit(field_from_order(3), Fraction(1, 10**12))
    assert abs(float(lim.value) - 0.6821535026) < 1e-9


def test_series_limit_tolerance_contract():
    coarse = simplex_gap_series_limit(F2, Fraction(1, 100))
    fine = simplex_gap_series_limit(F2, Fraction(1, 10**9))
    assert abs(coarse.value - fine.value) < Fraction(1, 100)
    assert coarse.terms < fine.terms
    with pytest.raises(ValueError):
        simplex_gap_series_limit(F2, 0)


def test_simplex_gap_converges_to_series_limit():
    # Fixed q = 2, growing k: the gap approaches the series value from below,
    # with the distance shrinking roughly geometrically. The distance first
    # drops under 1e-3 at k = 18.
    L = simplex_gap_series_limit(F2, Fraction(1, 10**15)).value
    dists = [abs(simplex_gap(F2, k).gap - L) for k in range(3, 19)]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert dists[12 - 3] > Fraction(1, 1000)
    assert dists[17 - 3] > Fraction(1, 1000)
    assert dists[18 - 3] < Fraction(1, 1000)


def test_hamming_gap_bound_values():
    assert hamming_gap_bound(F2, 2) == Decimal(1)
    assert hamming_gap_bound(F2, 3) == to_decimal(Fraction(7, 3))
    with pytest.raises(ValueError):
        hamming_gap_bound(F2, 1)


def test_hamming_gap_small_case():
    rep = hamming_gap(F2, 3)
    assert (rep.q, rep.k_or_r, rep.n) == (2, 3, 7)
    assert rep.exact_expectation == Fraction(347, 60)
    assert rep.bound == Fraction(319, 60)
    assert rep.gap == Fraction(7, 15)
    assert rep.predicted_leading_term == hamming_gap_bound(F2, 3)


def test_hamming_gap_stays_below_leading_term():
    for q, r in [(2, 3), (2, 4), (3, 3), (4, 3), (8, 3), (16, 3)]:
        rep = hamming_gap(field_from_order(q), r)
        assert rep.gap <= Fraction(rep.predicted_leading_term)


def test_hamming_ratio_decreases_with_q():
    ratios = [hamming_gap(field_from_order(q), 3).ratio for q in (4, 8, 16, 32)]
    assert all(r > 1 for r in ratios)
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_binary_hamming_ratio_bound_values():
    assert binary_hamming_ratio_bound(2) == to_decimal(Fraction(1, 3))
    assert binary_hamming_ratio_bound(3) == to_decimal(Fraction(319, 420))
    assert abs(float(binary_hamming_ratio_bound(4)) - 1.234896) < 1e-5
    with pytest.raises(ValueError):
        binary_hamming_ratio_bound(1)


def test_binary_hamming_gap_coefficients():
    assert binary_hamming_gap_coefficient(2) == to_decimal(Fraction(-8, 3))
    assert binary_hamming_gap_coefficient(3) == to_decimal(Fraction(-202, 105))
    assert abs(float(binary_hamming_gap_coefficient(4)) - 3.758331) < 1e-5
    with pytest.raises(ValueError):
        binary_hamming_gap_coefficient(0)


def test_binary_hamming_gap_reports():
    r2 = binary_hamming_gap(2)
    assert r2.gap == 0 and r2.ratio == Decimal(1)
    r3 = binary_hamming_gap(3)
    assert abs(float(r3.ratio) - 1.087774) < 1e-5
    r4 = binary_hamming_gap(4)
    assert abs(float(r4.ratio) - 1.098628) < 1e-5
    for r in range(2, 9):
        rep = binary_hamming_gap(r)
        assert rep.ratio >= 1
        assert rep.predicted_leading_term == binary_hamming_ratio_bound(r)
        assert rep.bound == rep.n * (harmonic(rep.n) - harmonic(r))


def test_gap_grid_sorts_and_dedupes():
    reports = gap_grid("simplex", [5, 3, 2, 5], k=3)
    assert [r.q for r in reports] == [2, 3, 5]
    reports = gap_grid("binary-hamming", [3, 2])
    assert [r.k_or_r for r in reports] == [2, 3]
    reports = gap_grid("hamming", [2, 4], r=3)
    assert [r.q for r in reports] == [2, 4]


def test_gap_grid_errors():
    with pytest.raises(ValueError):
        gap_grid("simplex", [2, 3])
    with pytest.raises(ValueError):
        gap_grid("hamming", [2, 3])
    with pytest.raises(ValueError):
        gap_grid("mystery", [2, 3])


def test_grid_csv_format():
    reports = gap_grid("simplex", [2, 3], k=3)
    text = grid_csv(reports, digits=12)
    lines = text.splitlines()
    assert lines[0] == "q,k_or_r,n,exact,bound,gap,ratio,predicted_term"
    assert len(lines) == 3
    assert text.endswith("\n")
    first = lines[1].split(",")
    assert first[0] == "2" and first[2] == "7"
    assert first[3].startswith("3.9166666")
    # No exponent notation in the data rows.
    assert all("e" not in ln.lower() for ln in lines[1:])


def test_grid_csv_empty_prediction_cell():
    with pytest.warns(UserWarning):
        reports = [simplex_gap(F2, 2)]
    text = grid_csv(reports)
    row = text.splitlines()[1]
    assert row.endswith(",")


def test_gap_report_invariants():
    with pytest.raises(InvariantViolation):
        GapReport(2, 3, 7, Fraction(4), Fraction(3), Fraction(2), Decimal(1), None)
    with pytest.raises(InvariantViolation):
        GapReport(2, 3, 7, Fraction(3), Fraction(4), Fraction(-1), Decimal(1), None)
