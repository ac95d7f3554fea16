import random
from itertools import combinations
from math import comb

import pytest

from coverdepth import codes
from coverdepth.codes import (
    BudgetExceededError,
    LinearCode,
    SubsetCounter,
    dual,
    hamming_code,
    independent_subset_profile,
    information_set_count,
    information_set_count_via_dual,
    information_set_profile,
    linear_code,
    projective_points,
    reed_solomon,
    shortened_dim_count,
    shortened_subcode_dim,
    simplex_code,
)
from coverdepth.gf import field_from_order
from coverdepth.matrix import (
    columns_of,
    identity,
    mat_mul,
    matrix,
    rank,
    row_space_canonical,
    span_basis,
    transpose,
    zeros,
)


def test_projective_points_gf3_dim2():
    F = field_from_order(3)
    assert projective_points(F, 2) == [(0, 1), (1, 0), (1, 1), (1, 2)]


@pytest.mark.parametrize("q,k", [(2, 1), (2, 3), (3, 2), (4, 2), (5, 3)])
def test_projective_points_properties(q, k):
    F = field_from_order(q)
    pts = projective_points(F, k)
    assert len(pts) == (q**k - 1) // (q - 1)
    assert pts == sorted(pts)
    assert len(set(pts)) == len(pts)
    for p in pts:
        lead = next(x for x in p if x)
        assert lead == 1
    with pytest.raises(ValueError):
        projective_points(F, 0)


def test_simplex_and_hamming_shapes():
    F2 = field_from_order(2)
    F3 = field_from_order(3)
    S = simplex_code(F2, 3)
    assert (S.n, S.k) == (7, 3)
    H = hamming_code(F2, 3)
    assert (H.n, H.k) == (7, 4)
    assert (simplex_code(F3, 3).n, simplex_code(F3, 3).k) == (13, 3)
    assert (hamming_code(F3, 3).n, hamming_code(F3, 3).k) == (13, 10)
    with pytest.raises(ValueError):
        simplex_code(F2, 1)
    with pytest.raises(ValueError):
        hamming_code(F2, 1)


def test_hamming_is_orthogonal_to_simplex():
    F = field_from_order(3)
    S = simplex_code(F, 3)
    H = hamming_code(F, 3)
    prod = mat_mul(H.generator, transpose(S.generator))
    assert all(x == 0 for row in prod.entries for x in row)


@pytest.mark.parametrize("q,n,k", [(5, 5, 2), (5, 6, 2), (7, 7, 3), (3, 4, 2), (4, 5, 3)])
def test_reed_solomon_is_mds(q, n, k):
    # MDS means every k columns are independent.
    C = reed_solomon(field_from_order(q), n, k)
    assert (C.n, C.k) == (n, k)
    assert information_set_count(C, k).value == comb(n, k)


def test_reed_solomon_errors():
    F = field_from_order(5)
    with pytest.raises(ValueError):
        reed_solomon(F, 7, 2)  # n > q + 1
    with pytest.raises(ValueError):
        reed_solomon(F, 3, 4)  # k > n
    with pytest.raises(ValueError):
        reed_solomon(F, 3, 0)


def test_dual_properties():
    C = reed_solomon(field_from_order(5), 5, 2)
    D = dual(C)
    assert (D.n, D.k) == (5, 3)
    prod = mat_mul(C.generator, transpose(D.generator))
    assert all(x == 0 for row in prod.entries for x in row)
    # Dual of an MDS code is MDS.
    assert information_set_count(D, 3).value == comb(5, 3)
    DD = dual(D)
    assert row_space_canonical(DD.generator).entries == row_space_canonical(C.generator).entries


def test_linear_code_validation():
    F = field_from_order(2)
    with pytest.raises(ValueError):
        linear_code(matrix(F, [[1, 0, 1], [1, 0, 1]]))  # rank 1 < 2 rows
    with pytest.raises(ValueError):
        LinearCode(F, 3, 2, matrix(F, [[1, 0, 1]]))  # shape mismatch
    with pytest.raises(ValueError):
        LinearCode(field_from_order(3), 3, 1, matrix(F, [[1, 0, 1]]))  # field mismatch
    with pytest.raises(ValueError):
        LinearCode(F, 0, 0, matrix(F, []))  # zero length
    # Zero and repeated columns are fine as long as the rows span.
    C = linear_code(matrix(F, [[1, 0, 0, 1], [0, 1, 0, 1]]))
    assert (C.n, C.k) == (4, 2)


def test_zero_dimensional_code():
    F = field_from_order(2)
    C = LinearCode(F, 3, 0, zeros(F, 0, 3))
    assert information_set_count(C, 0).value == 1
    assert information_set_profile(C) == [comb(3, s) for s in range(4)]


def test_full_dimensional_code():
    F = field_from_order(3)
    C = linear_code(identity(F, 4))
    assert information_set_profile(C) == [0, 0, 0, 0, 1]


def test_information_set_profile_simplex_frozen():
    C = simplex_code(field_from_order(2), 3)
    assert information_set_count(C, 3).value == 28
    assert information_set_profile(C) == [0, 0, 0, 28, 35, 21, 7, 1]


def test_profile_matches_per_size_counts(code_suite):
    for C in code_suite:
        profile = information_set_profile(C)
        assert len(profile) == C.n + 1
        for s in range(C.n + 1):
            count = information_set_count(C, s).value
            assert profile[s] == count == shortened_dim_count(C, 0, s).value


def test_information_set_profile_refuses_past_the_recursion_limit():
    # 1,365 columns: the walk would recurse once per column.
    with pytest.raises(BudgetExceededError, match="1365 columns"):
        information_set_profile(simplex_code(field_from_order(4), 6))


def test_independent_subset_walk_refuses_past_the_recursion_limit(monkeypatch):
    # Half a recursion limit of 6 lets the walk stack 3 columns: rank 3
    # runs, and rank 4 is refused once the walk would stack a fourth.
    F = field_from_order(2)
    monkeypatch.setattr(codes.sys, "getrecursionlimit", lambda: 6)
    assert independent_subset_profile(identity(F, 3)) == [1, 3, 3, 1]
    with pytest.raises(BudgetExceededError, match="stack 4 columns"):
        independent_subset_profile(identity(F, 4))


def test_counts_error_cases():
    C = simplex_code(field_from_order(2), 2)
    with pytest.raises(ValueError):
        information_set_count(C, -1)
    with pytest.raises(ValueError):
        information_set_count(C, C.n + 1)
    with pytest.raises(ValueError):
        shortened_dim_count(C, 0, C.n + 1)
    with pytest.raises(ValueError):
        information_set_count_via_dual(C, C.k - 1)
    with pytest.raises(ValueError):
        information_set_count_via_dual(C, C.n + 1)
    with pytest.raises(ValueError):
        SubsetCounter(C, 2, comb(C.n, 2) + 1)


def test_shortened_dim_count_out_of_range_dimension_is_zero():
    C = hamming_code(field_from_order(2), 3)
    assert shortened_dim_count(C, -1, 3).value == 0
    assert shortened_dim_count(C, C.k + 1, 3).value == 0


def test_shortened_dim_count_past_the_subset_size_enumerates_nothing(monkeypatch):
    # No size-s subset reaches rank k - l > s, so nothing is spanned.
    calls = []

    def counting_span_basis(*args, **kwargs):
        calls.append(args)
        return span_basis(*args, **kwargs)

    monkeypatch.setattr(codes, "span_basis", counting_span_basis)
    C = hamming_code(field_from_order(2), 3)
    for l in range(C.k):
        for s in range(C.k - l):
            assert shortened_dim_count(C, l, s).value == 0
    assert calls == []
    assert shortened_dim_count(C, 0, C.k).value > 0
    assert calls


def test_shortened_dim_counts_partition_all_subsets():
    # Each size-s subset has exactly one column rank, so the counts over all
    # dimensions must add up to C(n, s).
    C = hamming_code(field_from_order(2), 3)
    for s in range(C.n + 1):
        total = sum(shortened_dim_count(C, l, s).value for l in range(C.k + 1))
        assert total == comb(C.n, s)


def test_shortened_subcode_dim_definition():
    # Cross-check against a direct enumeration of codewords supported inside
    # the coordinate set.
    F = field_from_order(2)
    C = hamming_code(F, 3)
    rng = random.Random(31)
    from itertools import product as iproduct

    words = []
    for msg in iproduct(range(2), repeat=C.k):
        w = [0] * C.n
        for i, m in enumerate(msg):
            if m:
                w = [F.add(x, y) for x, y in zip(w, C.generator.entries[i])]
        words.append(tuple(w))
    for _ in range(10):
        T = set(rng.sample(range(C.n), rng.randint(0, C.n)))
        inside = sum(1 for w in words if all(w[j] == 0 for j in range(C.n) if j not in T))
        # The supported words form a subspace; its size is 2^dim.
        assert 2 ** shortened_subcode_dim(C, T) == inside
    with pytest.raises(ValueError):
        shortened_subcode_dim(C, [C.n])


def test_duality_identity(code_suite):
    # Count of size-s sets whose complement supports an l-dim subcode equals
    # the same count in the dual at (l + s - k, n - s), for every l and s.
    targets = [c for c in code_suite if 1 <= c.k < c.n][:6]
    targets.append(hamming_code(field_from_order(2), 3))
    for C in targets:
        D = dual(C)
        for s in range(C.n + 1):
            for l in range(-2, C.k + 3):
                left = shortened_dim_count(C, l, s).value
                right = shortened_dim_count(D, l + s - C.k, C.n - s).value
                assert left == right, (C, l, s)


def test_information_set_count_via_dual_matches(code_suite):
    for C in [c for c in code_suite if c.k < c.n][:8]:
        for s in range(C.k, C.n + 1):
            assert (
                information_set_count_via_dual(C, s).value
                == information_set_count(C, s).value
            )


def brute_independent_counts(M):
    F = M.field
    cols = columns_of(M)
    counts = [0] * (M.cols + 1)
    for t in range(M.cols + 1):
        for sub in combinations(range(M.cols), t):
            if len(span_basis(F, (cols[j] for j in sub))) == t:
                counts[t] += 1
    return counts


def test_independent_subset_profile_against_brute_force():
    F2 = field_from_order(2)
    F3 = field_from_order(3)
    cases = [
        matrix(F2, [[1, 0, 1, 1, 0], [0, 1, 1, 0, 0]]),
        matrix(F3, [[1, 0, 1, 2], [0, 1, 1, 1], [0, 0, 1, 0]]),
        matrix(F2, [[0, 0], [0, 0]]),  # rank 0: only the empty set
        identity(F3, 3),
    ]
    rng = random.Random(8)
    for _ in range(6):
        cases.append(
            matrix(F2, [[rng.randrange(2) for _ in range(6)] for _ in range(3)])
        )
    for M in cases:
        assert independent_subset_profile(M) == brute_independent_counts(M)


def test_span_rank_cap():
    F = field_from_order(2)
    cols = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert len(span_basis(F, cols)) == 3
    assert len(span_basis(F, cols, cap=2)) == 2
    assert len(span_basis(F, [], cap=5)) == 0
