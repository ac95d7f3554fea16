import json
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb

import numpy as np
import pytest
from conftest import lowered_keep_limit

from coverdepth import coverage
from coverdepth.coverage import (
    InvariantViolation,
    _PrimalBatch,
    _gaussian,
    _lattice_kept,
    expectation_exact,
    expectation_exact_dual,
    mds_bound,
)
from coverdepth.gf import field_from_order, is_prime_power
from coverdepth.codes import linear_code, projective_points
from coverdepth.matrix import from_columns
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


def test_enumerate_candidates_are_sorted_and_spanning():
    for cand in enumerate_candidates(F3, 2, 3):
        assert cand.points == tuple(sorted(cand.points))
        assert cand.as_code().k == 2


def test_enumerate_budget():
    gen = enumerate_candidates(F2, 3, 7, budget=100)
    with pytest.raises(BudgetExceededError):
        next(gen)
    with pytest.raises(BudgetExceededError):
        optimal_coverage(F2, 2, 3, mode="full", budget=5)
    assert DEFAULT_BUDGET == 5_000_000


def test_budget_is_checked_before_anything_is_built(monkeypatch):
    # At k = 40 the 2^40 - 1 points (and, in full mode, nonzero columns)
    # would exhaust memory, so neither may be built before the budget check.
    def forbidden(*args, **kwargs):
        raise AssertionError("enumeration started before the budget check")

    monkeypatch.setattr(search, "projective_points", forbidden)
    monkeypatch.setattr(search, "product", forbidden)
    with pytest.raises(BudgetExceededError):
        next(enumerate_candidates(F2, 40, 40))
    for mode in ("projective", "full"):
        with pytest.raises(BudgetExceededError):
            optimal_coverage(F2, 40, 40, mode=mode)


def test_budget_bounds_n_and_the_candidate_count_apart():
    # n is held to the budget on its own, not multiplied into the count,
    # so every search the candidate count admits is still admitted:
    # C(23, 9) = 817,190 and C(24, 10) = 1,961,256 multisets at k = 4.
    for n in (9, 10):
        search._check_search_budget(F2, 4, n, "projective", DEFAULT_BUDGET)
    search._check_search_budget(F2, 1, DEFAULT_BUDGET, "projective", DEFAULT_BUDGET)
    for mode in ("projective", "full"):
        with pytest.raises(BudgetExceededError, match="columns per candidate"):
            search._check_search_budget(F2, 1, DEFAULT_BUDGET + 1, mode, DEFAULT_BUDGET)


def test_enumerate_errors():
    with pytest.raises(ValueError):
        list(enumerate_candidates(F2, 0, 3))
    with pytest.raises(ValueError):
        list(enumerate_candidates(F2, 3, 2))
    with pytest.raises(ValueError):
        optimal_coverage(F2, 2, 3, mode="banana")


def test_candidate_multiset_validation():
    with pytest.raises(ValueError):
        CandidateMultiset(F2, 2, (1, 0))  # unsorted
    with pytest.raises(ValueError):
        CandidateMultiset(F2, 2, (0, 3))  # PG(1, 2) has points 0..2
    with pytest.raises(ValueError):
        CandidateMultiset(F2, 2, ())
    with pytest.raises(ValueError):
        CandidateMultiset(F2, 0, (0,))


def test_candidate_as_code_and_zero_column_dominance():
    base = CandidateMultiset(F2, 2, (0, 1, 2))
    pts = projective_points(F2, 2)
    padded = linear_code(from_columns(F2, [pts[0], pts[1], pts[2], (0, 0)]))
    assert base.n == 3 and base.as_code().n == 3
    assert padded.n == 4
    assert expectation_exact(padded) > expectation_exact(base.as_code())


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


@pytest.mark.parametrize("q,k", [(2, 3), (3, 3), (4, 2), (16, 3), (256, 2)])
def test_score_is_the_dual_route_and_none_off_the_span(q, k):
    # _score is the per-candidate reference the tail table is held to; hold
    # it in turn to the independent references: _spans for admissibility and
    # the dual route for the value. The first three spaces read their kept
    # lattice, the last two the kernel or the full-rank walk.
    F = field_from_order(q)
    assert _lattice_kept(q, k) == (q <= 4)
    pts = projective_points(F, k)
    hyperplane = [i for i, p in enumerate(pts) if p[0] == 0]
    rng = random.Random(f"score/{q}/{k}")
    spanning = 0
    for trial in range(40):
        n = rng.randint(1, 6)
        # Every fourth draw stays inside a hyperplane, so it cannot span.
        pool = hyperplane if trial % 4 == 0 else range(len(pts))
        combo = tuple(sorted(rng.choice(pool) for _ in range(n)))
        value = search._score(F, pts, combo)
        if not search._spans(F, pts, combo, k):
            assert value is None, combo
            continue
        spanning += 1
        assert value == expectation_exact_dual(CandidateMultiset(F, k, combo).as_code()), combo
    assert 0 < spanning < 40


@pytest.mark.parametrize("q,k,n", [(2, 4, 5), (3, 3, 5)])
def test_search_builds_no_code_matrix_or_kernel(monkeypatch, q, k, n):
    # n - k < k in both cases, so scoring through expectation_exact_auto
    # would build each candidate's kernel. Under a 100-member keep limit
    # neither lattice (307 and 184 member vectors) is kept, and the search
    # reads a tail table built there just the same.
    F = field_from_order(q)
    reference = _reference_search(F, k, n)

    def forbidden(*args, **kwargs):
        raise AssertionError("search rebuilt a candidate")

    monkeypatch.setattr(search, "linear_code", forbidden)
    monkeypatch.setattr(search, "from_columns", forbidden)
    monkeypatch.setattr(search, "_spans", forbidden)
    monkeypatch.setattr(search, "_score", forbidden)
    monkeypatch.setattr(coverage, "kernel_basis", forbidden)
    assert optimal_coverage(F, k, n).to_json_dict() == reference
    monkeypatch.setattr(search, "_batch", lru_cache(maxsize=8)(search._batch.__wrapped__))
    with lowered_keep_limit(100):
        assert not _lattice_kept(q, k)
        assert optimal_coverage(F, k, n).to_json_dict() == reference


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


def _brute_full_search(F, k, n):
    # Full mode's reference: every nonzero raw matrix scored on its own
    # columns, each column projected to its point index here, by scaling
    # its first nonzero entry to 1.
    pts = projective_points(F, k)
    index = {p: i for i, p in enumerate(pts)}

    def point(v):
        lead = F.inv(next(x for x in v if x))
        return index[tuple(F.mul(lead, x) for x in v)]

    nonzero = [v for v in product(range(F.q), repeat=k) if any(v)]
    scored = []
    for combo in product(range(len(nonzero)), repeat=n):
        value = search._score(F, nonzero, combo)
        if value is not None:
            scored.append((value, tuple(sorted(point(nonzero[i]) for i in combo))))
    values = sorted({value for value, _ in scored})
    return {
        "examined": len(nonzero) ** n,
        "admissible": len(scored),
        "minimum": values[0],
        "runner_up": values[1] if len(values) > 1 else None,
        "argmins": sorted({points for value, points in scored if value == values[0]}),
    }


# k = 1, n = k and a second extension field hold the closed-form counts to
# brute force at the ends of the Moebius sum.
@pytest.mark.parametrize("q,k,n", [(2, 2, 3), (3, 2, 3), (2, 3, 4), (4, 2, 3), (3, 1, 3), (2, 2, 2), (4, 2, 2)])
def test_full_mode_matches_brute_force(q, k, n):
    F = field_from_order(q)
    report = optimal_coverage(F, k, n, mode="full")
    assert {
        "examined": report.candidates_examined,
        "admissible": report.candidates_admissible,
        "minimum": report.minimum,
        "runner_up": report.runner_up,
        "argmins": [c.points for c in report.optimal_candidates],
    } == _brute_full_search(F, k, n)


def test_full_mode_folds_on_forked_workers(monkeypatch):
    # Full mode splits its multisets by first column like projective mode,
    # so at jobs = 2 one child is forked for the second share.
    real, forks = coverage.os.fork, []

    def counted():
        forks.append(1)
        return real()

    whole = optimal_coverage(F3, 2, 4, mode="full").to_json_dict()
    monkeypatch.setattr(coverage.os, "fork", counted)
    assert optimal_coverage(F3, 2, 4, mode="full", jobs=2).to_json_dict() == whole
    assert len(forks) == 1


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


@pytest.mark.parametrize("q,k,n", [(2, 2, 3), (3, 2, 3)])
def test_verify_reduction_rejects_a_cheap_zero_column(monkeypatch, q, k, n):
    # Doctor the raw matrices' keys so that every spanning matrix with a
    # zero column (partition 0 of the raw side, over all q^k vectors)
    # scores below every other key: the value sets still agree, so only the
    # zero-column check can fail. n > k, so some spanning matrix has a
    # zero column.
    F = field_from_order(q)
    real = search._scored_chunks
    raw = search._batch(F, k, n, "vectors")
    doctored = []

    def cheap_zero_columns(batch, first):
        for prefix, tails, rows, keys in real(batch, first):
            if batch is raw and first == 0:
                keys = np.full_like(keys, -(10**9))
                doctored.append(keys.size)
            yield prefix, tails, rows, keys

    assert verify_reduction(F, k, n)
    monkeypatch.setattr(search, "_scored_chunks", cheap_zero_columns)
    assert not verify_reduction(F, k, n)
    assert sum(doctored) > 0


def test_verify_reduction_guard():
    with pytest.raises(BudgetExceededError):
        verify_reduction(F2, 3, 7, guard=100)
    # 2^(40 * 10^6) matrices: the check must stop long before building that count.
    with pytest.raises(BudgetExceededError):
        verify_reduction(F2, 40, 10**6, guard=100)


# Small spaces where many multisets repeat points or miss the span; n = k
# leaves a single spanning shape.
_BATCH_GRID = [(2, 2, 2), (2, 3, 3), (3, 2, 2), (2, 3, 5), (3, 2, 5), (4, 2, 4), (2, 4, 4), (3, 3, 4)]


def _table_values(batch, firsts):
    # {candidate: value} of the spanning candidates each chunk lists, and
    # how many candidates the chunks held in all.
    got, examined = {}, 0
    for first in firsts:
        for prefix, tails, rows, keys in search._scored_chunks(batch, first):
            examined += len(tails)
            got.update((prefix + tuple(tails[i].tolist()), batch.value(key)) for i, key in zip(rows, keys))
    return got, examined


@pytest.mark.parametrize("q,k,n", _BATCH_GRID)
def test_batched_totals_are_score_per_candidate(q, k, n):
    # Every multiset, not just the fold's extremes: the tail table lists
    # every candidate once, spans exactly where _score is not None, and its
    # total reads back as _score's value.
    F = field_from_order(q)
    pts = projective_points(F, k)
    combos = list(combinations_with_replacement(range(len(pts)), n))
    got, examined = _table_values(search._batch(F, k, n, "points"), range(len(pts)))
    assert examined == len(combos)
    assert 0 < len(got) < len(combos)
    for combo in combos:
        value = search._score(F, pts, combo)
        assert (value is not None) == (combo in got), combo
        if value is not None:
            assert got[combo] == value, combo


@pytest.mark.parametrize("q,k,n", _BATCH_GRID)
def test_batched_fold_matches_per_candidate_fold(monkeypatch, q, k, n):
    # The search's fold runs on integer keys and skips chunks that cannot
    # change it; it must equal the fold of every candidate's _score value.
    F = field_from_order(q)
    pts = projective_points(F, k)
    want = _Fold()
    for combo in combinations_with_replacement(range(len(pts)), n):
        want.examined += 1
        value = search._score(F, pts, combo)
        if value is not None:
            want.admissible += 1
            want.add(value, combo)
    monkeypatch.setattr(search, "_score", _raise_on_score)
    got = _Fold()
    for first in range(len(pts)):
        got.merge(search._fold_chunks(search._batch(F, k, n, "points"), first))
    assert _state(got) == _state(want)


@pytest.mark.parametrize("cells", [1, 100])
@pytest.mark.parametrize("q,k,n", [(2, 3, 7), (3, 2, 5), (2, 4, 5)])
def test_chunk_size_does_not_change_reports(monkeypatch, cells, q, k, n):
    # Chunks are counted over the subspaces a prefix touches: 100 cells
    # make chunks of 25 candidates over GF(2)^3 (4 subspaces through a
    # point), 100 over GF(3)^2 (1) and 6 over GF(2)^4 (15).
    F = field_from_order(q)
    whole = optimal_coverage(F, k, n).to_json_dict()
    monkeypatch.setattr(coverage, "_BATCH_CELLS", cells)
    assert optimal_coverage(F, k, n).to_json_dict() == whole


# The projective shapes of the search-small benchmark workload.
_SEARCH_SMALL = [(2, 3, 7), (2, 3, 8), (3, 3, 5), (2, 4, 5), (4, 2, 6)]


@pytest.mark.parametrize("cells", [100, 1000])
def test_shorter_tails_give_the_same_reports(monkeypatch, cells):
    # A lowered table cap shortens the tails, so each candidate's prefix of
    # 2 or more points is enumerated in Python; the reports stay
    # byte-identical. At 1000 cells full mode's (2, 3, 4) has 2-point
    # prefixes.
    shapes = [("projective", q, k, n) for q, k, n in _BATCH_GRID + _SEARCH_SMALL]
    shapes += [("full", 3, 2, 4), ("full", 2, 3, 4)]
    want = [json.dumps(optimal_coverage(field_from_order(q), k, n, mode=mode).to_json_dict())
            for mode, q, k, n in shapes]
    monkeypatch.setattr(coverage, "_BLOCK_CELLS", cells)
    monkeypatch.setattr(search, "_batch", lru_cache(maxsize=8)(search._batch.__wrapped__))
    heads = set()
    for (mode, q, k, n), report in zip(shapes, want):
        F = field_from_order(q)
        assert json.dumps(optimal_coverage(F, k, n, mode=mode).to_json_dict()) == report
        heads.add(n - search._batch(F, k, n, "points" if mode == "projective" else "vectors").tail)
    assert {2, 3} <= heads


@pytest.mark.parametrize("jobs", [2, 3])
def test_reports_do_not_depend_on_jobs(jobs):
    # 1, 3 and 7 partitions in projective mode: below jobs, equal to 3 and
    # not a multiple of 2, and a multiple of neither. Full mode has one per
    # nonzero vector: 2, 3 and 7.
    for mode in ("projective", "full"):
        for F, k, n in [(F3, 1, 3), (F2, 2, 4), (F2, 3, 5)]:
            whole = json.dumps(optimal_coverage(F, k, n, mode=mode).to_json_dict())
            assert json.dumps(optimal_coverage(F, k, n, mode=mode, jobs=jobs).to_json_dict()) == whole


def test_tail_table_memory_stays_capped():
    # (2, 4, 8) keeps tails of 4 of its 8 points: 3,060 tails over the 65
    # used subspaces, 198,900 int8 counts. Uncapped, the 7-point tails
    # would take about 40 MB.
    optimal_coverage(F2, 4, 5)  # builds the field's tables
    search._batch.cache_clear()
    tracemalloc.start()
    try:
        optimal_coverage(F2, 4, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert search._batch(F2, 4, 8, "points").tail == 4
    assert peak < 2_000_000, peak


def test_tail_table_incidence_is_bounded_by_the_candidate_count():
    # A tail table reads the whole lattice of GF(q)^k, kept or not. For
    # n >= k its incidence (subspaces x columns) stays within 3 times the
    # candidates, for the projective points and all q^k vectors alike, so
    # the search's candidate budget bounds it. The budget counts candidates
    # as the search reports them: multisets of points, and n-tuples of
    # vectors. The largest ratio, 2.5, is at q = k = n = 2; it falls as n
    # grows. Full mode reads the table of all q^k vectors but its budget
    # counts the (q^k - 1)^n matrices of nonzero columns: within 4 times,
    # reached only over GF(2)^1, a table of 2 x 2 cells.
    worst = worst_full = Fraction(0)
    for q in filter(is_prime_power, range(2, 4000)):
        for k in range(1, 7):
            subspaces = sum(_gaussian(k, d, q) for d in range(k + 1))
            points, vectors = _gaussian(k, 1, q), q**k
            for n in range(k, k + 3):
                for columns, candidates in ((points, comb(points + n - 1, n)), (vectors, vectors**n)):
                    worst = max(worst, Fraction(subspaces * columns, candidates))
                ratio = Fraction(subspaces * vectors, (vectors - 1) ** n)
                worst_full = max(worst_full, ratio)
                assert k == 1 or ratio <= 3, (q, k, n)
    assert worst == Fraction(5 * 3, comb(3 + 1, 2)) == Fraction(5, 2)
    assert worst_full == Fraction(2 * 2, 1)


@pytest.mark.parametrize("q,k,n", [(2, 3, 7), (3, 3, 4), (2, 4, 5)])
def test_object_totals_give_the_same_reports(monkeypatch, q, k, n):
    # With no int64 headroom the batch sums Python ints instead.
    F = field_from_order(q)
    whole = optimal_coverage(F, k, n).to_json_dict()
    monkeypatch.setattr(coverage, "_INT64_LIMIT", 1)
    monkeypatch.setattr(search, "_batch", search._batch.__wrapped__)
    batch = search._batch(F, k, n, "points")
    assert batch.weights.dtype == batch.totals.dtype == object
    assert optimal_coverage(F, k, n).to_json_dict() == whole


@pytest.mark.parametrize("n,exact", [(42, np.int64), (43, object)])
def test_int64_totals_stop_at_their_headroom(n, exact):
    # Over GF(2)^2 the table holds the 3 points, each with |mu| = 1:
    # 3 * lcm(1..42) < 2^63 <= 3 * lcm(1..43), and lcm(1..43) alone
    # already passes 2^63.
    batch = search._batch.__wrapped__(F2, 2, n, "points")
    assert batch.weights.dtype == batch.totals.dtype == exact
    assert optimal_coverage(F2, 2, n).to_json_dict() == _reference_search(F2, 2, n)


def test_unkept_side_scores_each_candidate(monkeypatch):
    # The lattice of GF(16)^3 is not kept, yet its candidates are read from
    # the tail table as on a kept one. The whole n = 3 search has 3.4M
    # multisets; the last partitions hold a few hundred of them, each held
    # to the dual route.
    F = field_from_order(16)
    assert not _lattice_kept(16, 3)
    pts = projective_points(F, 3)
    monkeypatch.setattr(search, "_score", _raise_on_score)
    for first in range(len(pts) - 12, len(pts)):
        want = _Fold()
        for tail in combinations_with_replacement(range(first, len(pts)), 2):
            combo = (first,) + tail
            want.examined += 1
            if search._spans(F, pts, combo, 3):
                want.admissible += 1
                want.add(expectation_exact_dual(CandidateMultiset(F, 3, combo).as_code()), combo)
        assert _state(search._fold_chunks(search._batch(F, 3, 3, "points"), first)) == _state(want)


def _raise_on_score(*args):
    raise AssertionError("the search scored a candidate alone")


def test_kept_lattices_score_nothing_alone(monkeypatch):
    # verify_reduction's raw matrices and projective candidates, and full
    # mode's raw matrices, are all read from tail tables where kept.
    monkeypatch.setattr(search, "_score", _raise_on_score)
    assert verify_reduction(F2, 2, 3)
    assert verify_reduction(F2, 2, 4)
    assert verify_reduction(F3, 2, 2)
    assert optimal_coverage(F3, 2, 4, mode="full").to_json_dict() == {
        "n": 4, "k": 2, "q": 3, "mode": "full", "candidates_examined": 4096,
        "candidates_admissible": 4032, "minimum": "7/3", "optimal_candidates": [[0, 1, 2, 3]],
        "runner_up": "8/3",
    }


@pytest.mark.parametrize("q,k,n", [(2, 2, 3), (3, 2, 2), (2, 3, 3)])
def test_batched_raw_matrices_are_exact_from_columns(q, k, n):
    # Every raw matrix over all q^k vectors, zero columns included, as a
    # sorted multiset: the tail table spans exactly where _score has a
    # value, and the values agree multiset by multiset, so also as a set.
    F = field_from_order(q)
    vectors = list(product(range(q), repeat=k))
    combos = list(combinations_with_replacement(range(len(vectors)), n))
    got, examined = _table_values(_PrimalBatch(F, vectors, k, n), range(len(vectors)))
    assert examined == len(combos)
    want = {}
    for combo in combos:
        value = search._score(F, vectors, combo)
        if value is not None:
            want[combo] = value
    assert got == want
    assert 0 < len(want) < len(combos)


def test_verify_reduction_scores_each_matrix_on_an_unkept_lattice(monkeypatch, gf1021_line_unkept):
    # Below the default keep limit, GF(1021)^1 is an unkept lattice small
    # enough to enumerate: its 1021 raw matrices and its one projective
    # candidate are read from tail tables built here, none scored alone.
    F = field_from_order(1021)
    assert not _lattice_kept(1021, 1)
    monkeypatch.setattr(search, "_score", _raise_on_score)
    monkeypatch.setattr(search, "_batch", lru_cache(maxsize=8)(search._batch.__wrapped__))
    assert verify_reduction(F, 1, 1)
    assert search._batch.cache_info().currsize == 2


def test_full_mode_scores_each_matrix_on_an_unkept_lattice(monkeypatch, gf1021_line_unkept):
    # Below the default keep limit, the 1020 raw matrices of the unkept
    # GF(1021)^1 are read from the tail table, none scored alone; every one
    # spans and they all share the single projective point.
    F = field_from_order(1021)
    assert not _lattice_kept(1021, 1)
    monkeypatch.setattr(search, "_score", _raise_on_score)
    proj = optimal_coverage(F, 1, 1)
    full = optimal_coverage(F, 1, 1, mode="full")
    assert full.candidates_examined == full.candidates_admissible == 1020
    assert full.minimum == proj.minimum
    assert full.optimal_candidates == proj.optimal_candidates
