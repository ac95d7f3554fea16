from fractions import Fraction
from math import comb

import pytest

from coverdepth.coverage import InvariantViolation, expectation_exact, mds_bound
from coverdepth.gf import field_from_order
from coverdepth.codes import projective_points
from coverdepth import search
from coverdepth.search import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    CandidateMultiset,
    SearchReport,
    _Fold,
    enumerate_candidates,
    optimal_coverage,
    verify_reduction,
)

F2 = field_from_order(2)
F3 = field_from_order(3)


def test_enumerate_projective_counts():
    cands = list(enumerate_candidates(F2, 2, 2))
    assert [c.points for c in cands] == [(0, 1), (0, 2), (1, 2)]
    assert len(list(enumerate_candidates(F2, 2, 3))) == 7
    assert len(list(enumerate_candidates(F2, 3, 7))) == 1478


def test_enumerate_full_mode_keeps_duplicates():
    cands = list(enumerate_candidates(F2, 2, 3, mode="full"))
    assert len(cands) == 24
    # Every full-mode multiset also appears in projective mode.
    proj = {c.points for c in enumerate_candidates(F2, 2, 3)}
    assert {c.points for c in cands} == proj


def test_enumerate_candidates_are_sorted_and_spanning():
    for cand in enumerate_candidates(F3, 2, 3):
        assert cand.points == tuple(sorted(cand.points))
        assert cand.as_code().k == 2


def test_enumerate_budget():
    gen = enumerate_candidates(F2, 3, 7, budget=100)
    with pytest.raises(BudgetExceededError):
        next(gen)
    with pytest.raises(BudgetExceededError):
        list(enumerate_candidates(F2, 2, 3, mode="full", budget=5))
    assert DEFAULT_BUDGET == 5_000_000


def test_budget_is_checked_before_anything_is_built(monkeypatch):
    # At k = 40 the 2^40 - 1 points (and, in full mode, nonzero columns)
    # would exhaust memory, so neither may be built before the budget check.
    def forbidden(*args, **kwargs):
        raise AssertionError("enumeration started before the budget check")

    monkeypatch.setattr(search, "projective_points", forbidden)
    monkeypatch.setattr(search, "product", forbidden)
    for mode in ("projective", "full"):
        with pytest.raises(BudgetExceededError):
            next(enumerate_candidates(F2, 40, 40, mode))
        with pytest.raises(BudgetExceededError):
            optimal_coverage(F2, 40, 40, mode=mode)


def test_enumerate_errors():
    with pytest.raises(ValueError):
        list(enumerate_candidates(F2, 0, 3))
    with pytest.raises(ValueError):
        list(enumerate_candidates(F2, 3, 2))
    with pytest.raises(ValueError):
        list(enumerate_candidates(F2, 2, 3, mode="banana"))


def test_candidate_multiset_validation():
    with pytest.raises(ValueError):
        CandidateMultiset(F2, 2, (1, 0))  # unsorted
    with pytest.raises(ValueError):
        CandidateMultiset(F2, 2, (0, 3))  # PG(1, 2) has points 0..2
    with pytest.raises(ValueError):
        CandidateMultiset(F2, 2, ())
    with pytest.raises(ValueError):
        CandidateMultiset(F2, 0, (0,))
    with pytest.raises(ValueError):
        CandidateMultiset(F2, 2, (0, 1), zero_columns=-1)


def test_candidate_as_code_and_zero_column_dominance():
    base = CandidateMultiset(F2, 2, (0, 1, 2))
    padded = CandidateMultiset(F2, 2, (0, 1, 2), zero_columns=1)
    assert base.n == 3 and padded.n == 4
    assert padded.as_code().n == 4
    assert expectation_exact(padded.as_code()) > expectation_exact(base.as_code())


def test_search_small_binary_case():
    report = optimal_coverage(F2, 2, 3)
    assert report.candidates_examined == 10
    assert report.candidates_admissible == 7
    assert report.minimum == Fraction(5, 2)
    assert report.runner_up == Fraction(7, 2)
    assert [c.points for c in report.optimal_candidates] == [(0, 1, 2)]
    assert report.mode == "projective"


def test_search_simplex_is_optimal_at_its_length():
    report = optimal_coverage(F2, 3, 7)
    assert report.candidates_examined == comb(7 + 7 - 1, 7) == 1716
    assert report.candidates_admissible == 1478
    assert report.minimum == Fraction(47, 12)
    assert [c.points for c in report.optimal_candidates] == [(0, 1, 2, 3, 4, 5, 6)]
    assert report.runner_up == Fraction(17, 4)


def test_search_mds_case_attains_bound():
    report = optimal_coverage(F3, 2, 4)
    assert report.minimum == mds_bound(4, 2) == Fraction(7, 3)
    assert (0, 1, 2, 3) in [c.points for c in report.optimal_candidates]


def test_search_parallel_matches_sequential():
    seq = optimal_coverage(F2, 3, 7, jobs=1)
    par = optimal_coverage(F2, 3, 7, jobs=2)
    assert seq.to_json_dict() == par.to_json_dict()


def _reference_search(F, k, n):
    # Independent of the partition fold: score every admissible multiset with
    # the primal route and take minimum, argmins and runner-up over the list.
    scored = [
        (expectation_exact(cand.as_code()), list(cand.points))
        for cand in enumerate_candidates(F, k, n)
    ]
    values = sorted({value for value, _ in scored})
    point_count = len(projective_points(F, k))
    return {
        "n": n,
        "k": k,
        "q": F.q,
        "mode": "projective",
        "candidates_examined": comb(point_count + n - 1, n),
        "candidates_admissible": len(scored),
        "minimum": f"{values[0].numerator}/{values[0].denominator}",
        "optimal_candidates": sorted(points for value, points in scored if value == values[0]),
        "runner_up": (
            f"{values[1].numerator}/{values[1].denominator}" if len(values) > 1 else None
        ),
    }


@pytest.mark.parametrize("q,k,n", [(2, 2, 4), (2, 3, 6), (3, 2, 4)])
@pytest.mark.parametrize("jobs", [1, 2])
def test_search_matches_reference_fold(q, k, n, jobs):
    F = field_from_order(q)
    assert optimal_coverage(F, k, n, jobs=jobs).to_json_dict() == _reference_search(F, k, n)


def _fold_of(items):
    fold = _Fold()
    for value, points in items:
        fold.examined += 1
        fold.admissible += 1
        fold.add(Fraction(value), points)
    return fold


def _merged(*parts):
    fold = _Fold()
    for part in parts:
        fold.merge(_fold_of(part))
    return fold


def _state(fold):
    return fold.examined, fold.admissible, fold.best, fold.argmins, fold.second


def test_fold_merge_empty_partitions():
    empty = _merged([], [])
    assert _state(empty) == (0, 0, None, [], None)
    items = [(3, (0,)), (2, (1,)), (5, (2,))]
    assert _state(_merged([], items, [])) == _state(_fold_of(items))
    assert _state(_merged(items[:1], [])) == (1, 1, Fraction(3), [(0,)], None)


def test_fold_merge_tie_across_partitions():
    fold = _merged([(2, (0, 1)), (4, (0, 2))], [(3, (1, 1))], [(2, (2, 2)), (2, (2, 3))])
    assert fold.best == 2
    assert fold.argmins == [(0, 1), (2, 2), (2, 3)]
    assert fold.second == 3
    assert (fold.examined, fold.admissible) == (5, 5)


def test_fold_merge_runner_up_held_by_another_partition():
    # The first partition holds only copies of the minimum, so the runner-up
    # exists only in the second partition, behind that partition's own best.
    fold = _merged([(1, (0,)), (1, (1,))], [(7, (2,)), (9, (3,))])
    assert (fold.best, fold.argmins, fold.second) == (1, [(0,), (1,)], 7)
    fold = _merged([(7, (0,))], [(1, (1,)), (1, (2,))])
    assert (fold.best, fold.argmins, fold.second) == (1, [(1,), (2,)], 7)


def test_fold_merge_is_independent_of_the_split():
    items = [(5, (0,)), (2, (1,)), (7, (2,)), (2, (3,)), (3, (4,)), (3, (5,)), (2, (6,))]
    whole = _state(_fold_of(items))
    for cuts in [(1, 4), (2, 2), (0, 7), (3, 6), (6, 7)]:
        a, b = cuts
        assert _state(_merged(items[:a], items[a:b], items[b:])) == whole
    assert _state(_merged(*[[item] for item in items])) == whole


def test_search_full_mode_agrees_with_projective():
    proj = optimal_coverage(F2, 2, 3)
    full = optimal_coverage(F2, 2, 3, mode="full")
    assert full.candidates_examined == 27
    assert full.candidates_admissible == 24
    assert full.minimum == proj.minimum
    assert [c.points for c in full.optimal_candidates] == [
        c.points for c in proj.optimal_candidates
    ]


def test_search_budget_and_validation():
    with pytest.raises(BudgetExceededError):
        optimal_coverage(F2, 3, 7, budget=100)
    with pytest.raises(BudgetExceededError):
        optimal_coverage(F2, 3, 7, jobs=2, budget=100)
    with pytest.raises(ValueError):
        optimal_coverage(F2, 2, 1)
    with pytest.raises(ValueError):
        optimal_coverage(F2, 2, 3, jobs=0)
    with pytest.raises(ValueError):
        optimal_coverage(F2, 2, 3, mode="banana")


def test_search_minimum_respects_bound_across_lengths():
    for n in range(2, 6):
        report = optimal_coverage(F2, 2, n)
        assert report.minimum >= mds_bound(n, 2)
        if report.runner_up is not None:
            assert report.runner_up > report.minimum


def test_report_json_shape():
    report = optimal_coverage(F2, 2, 3)
    d = report.to_json_dict()
    assert d["minimum"] == "5/2"
    assert d["runner_up"] == "7/2"
    assert d["optimal_candidates"] == [[0, 1, 2]]
    assert "wall_time" not in d
    assert set(d) == {
        "n", "k", "q", "mode", "candidates_examined", "candidates_admissible",
        "minimum", "optimal_candidates", "runner_up",
    }
    assert report.wall_time >= 0.0


def test_report_invariants():
    cm = CandidateMultiset(F2, 2, (0, 1, 2))
    good = dict(
        n=3, k=2, q=2, mode="projective", candidates_examined=10,
        candidates_admissible=7, minimum=Fraction(5, 2),
        optimal_candidates=(cm,), runner_up=Fraction(7, 2), wall_time=0.0,
    )
    SearchReport(**good)
    with pytest.raises(InvariantViolation):
        SearchReport(**{**good, "optimal_candidates": ()})
    with pytest.raises(InvariantViolation):
        SearchReport(**{**good, "minimum": Fraction(4)})
    with pytest.raises(InvariantViolation):
        SearchReport(**{**good, "minimum": Fraction(1), "runner_up": None})


def test_verify_reduction_small_cases():
    assert verify_reduction(F2, 2, 3)
    assert verify_reduction(F2, 2, 4)
    assert verify_reduction(F3, 2, 2)


def test_verify_reduction_guard():
    with pytest.raises(BudgetExceededError):
        verify_reduction(F2, 3, 7, guard=100)
