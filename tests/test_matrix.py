import random

import pytest

from conftest import random_invertible
from coverdepth.gf import field_from_order
from coverdepth.matrix import (
    MatrixGF,
    columns_of,
    format_matrix,
    from_columns,
    identity,
    in_span,
    kernel_basis,
    mat_mul,
    matrix,
    parse_matrix,
    rank,
    row_space_canonical,
    rref,
    transpose,
    zeros,
)


def span_size(M):
    """Count distinct linear combinations of the rows: equals q^rank."""
    F = M.field
    seen = {(0,) * M.cols}
    for row in M.entries:
        seen = {tuple(F.add(x, F.mul(c, y)) for x, y in zip(v, row))
                for v in seen for c in F.elements()}
    return len(seen)


def random_matrix(rng, F, rows, cols):
    return matrix(F, [[rng.randrange(F.q) for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("q", [2, 3, 4])
def test_rank_matches_span_size(q):
    F = field_from_order(q)
    rng = random.Random(1000 + q)
    for _ in range(30):
        rows = rng.randint(0, 4)
        cols = rng.randint(1, 5)
        M = random_matrix(rng, F, rows, cols) if rows else zeros(F, 0, cols)
        assert q ** rank(M) == span_size(M)


def test_rank_known_cases():
    F = field_from_order(3)
    assert rank(identity(F, 4)) == 4
    assert rank(zeros(F, 3, 5)) == 0
    assert rank(matrix(F, [[1, 2], [0, 1]])) == 2
    assert rank(matrix(F, [[1, 2], [2, 1]])) == 1  # second row = 2 * first
    assert rank(matrix(F, [])) == 0


def test_rank_invariant_under_invertible_left_mul():
    F = field_from_order(4)
    rng = random.Random(77)
    M = random_matrix(rng, F, 4, 6)
    r = rank(M)
    for _ in range(100):
        A = random_invertible(rng, F, 4)
        assert rank(mat_mul(A, M)) == r


def sparse_matrix(rng, F, rows, cols, nonzeros):
    """A random matrix with at most the given number of nonzeros per row."""
    entries = [[0] * cols for _ in range(rows)]
    for row in entries:
        for j in rng.sample(range(cols), rng.randint(0, nonzeros)):
            row[j] = rng.randrange(1, F.q)
    return matrix(F, entries)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_rref_properties(q):
    F = field_from_order(q)
    rng = random.Random(2000 + q)
    cases = [random_matrix(rng, F, rng.randint(1, 4), rng.randint(1, 5)) for _ in range(20)]
    cases += [sparse_matrix(rng, F, 3, 12, 2) for _ in range(10)]
    for M in cases:
        R, pivots = rref(M)
        assert pivots == sorted(set(pivots))
        assert len(pivots) == rank(M)
        for i, c in enumerate(pivots):
            col = [R.entries[r][c] for r in range(R.rows)]
            assert col == [1 if r == i else 0 for r in range(R.rows)]
        for r in range(len(pivots), R.rows):
            assert not any(R.entries[r])
        # Row space is preserved: canonical forms coincide.
        assert row_space_canonical(M).entries == row_space_canonical(R).entries
        # The same two facts without rref: each row is zero before its
        # pivot, and M, R and M stacked on R's nonzero rows span one space.
        for i, c in enumerate(pivots):
            assert not any(R.entries[i][:c])
        stacked = matrix(F, M.entries + R.entries[: len(pivots)])
        assert span_size(M) == span_size(R) == span_size(stacked)


def test_row_space_canonical_is_a_row_space_invariant():
    F = field_from_order(3)
    rng = random.Random(5)
    for _ in range(20):
        M = random_matrix(rng, F, 3, 5)
        A = random_invertible(rng, F, 3)
        left = row_space_canonical(M)
        right = row_space_canonical(mat_mul(A, M))
        assert left.entries == right.entries


@pytest.mark.parametrize("q", [2, 3, 4])
def test_kernel_basis(q):
    F = field_from_order(q)
    rng = random.Random(3000 + q)
    for _ in range(20):
        M = random_matrix(rng, F, rng.randint(1, 4), rng.randint(1, 6))
        K = kernel_basis(M)
        assert K.rows == M.cols - rank(M)
        assert rank(K) == K.rows
        prod = mat_mul(M, transpose(K))
        assert all(x == 0 for row in prod.entries for x in row)


def test_kernel_of_identity_is_empty():
    F = field_from_order(2)
    K = kernel_basis(identity(F, 3))
    assert K.rows == 0 and K.cols == 3


def test_in_span_cases():
    F = field_from_order(3)
    assert in_span(F, [], [0, 0])
    assert not in_span(F, [], [1, 0])
    assert in_span(F, [[1, 2], [0, 1]], [1, 1])
    assert not in_span(F, [[1, 0, 0]], [0, 1, 0])
    assert in_span(F, [[1, 0], [0, 1]], [2, 2])
    with pytest.raises(ValueError):
        in_span(F, [[1, 0]], [1, 0, 0])


def test_mat_mul_identity_and_associativity():
    F = field_from_order(4)
    rng = random.Random(9)
    A = random_matrix(rng, F, 2, 3)
    B = random_matrix(rng, F, 3, 4)
    C = random_matrix(rng, F, 4, 2)
    assert mat_mul(identity(F, 2), A).entries == A.entries
    assert mat_mul(A, identity(F, 3)).entries == A.entries
    left = mat_mul(mat_mul(A, B), C)
    right = mat_mul(A, mat_mul(B, C))
    assert left.entries == right.entries
    with pytest.raises(ValueError):
        mat_mul(A, C)
    with pytest.raises(ValueError):
        mat_mul(A, random_matrix(rng, field_from_order(2), 3, 2))


def test_transpose_and_column_round_trip():
    F = field_from_order(5)
    rng = random.Random(4)
    M = random_matrix(rng, F, 3, 4)
    assert transpose(transpose(M)).entries == M.entries
    assert from_columns(F, columns_of(M)).entries == M.entries


def test_matrix_validation():
    F = field_from_order(2)
    with pytest.raises(ValueError):
        MatrixGF(F, 2, 2, [[0, 1]])
    with pytest.raises(ValueError):
        MatrixGF(F, 1, 2, [[0, 1, 1]])
    with pytest.raises(ValueError):
        MatrixGF(F, 1, 2, [[0, 2]])
    with pytest.raises(ValueError):
        MatrixGF(F, -1, 2, [])


def test_parse_format_round_trip():
    F = field_from_order(4)
    rng = random.Random(12)
    M = random_matrix(rng, F, 3, 5)
    P = parse_matrix(format_matrix(M))
    assert (P.field, P.rows, P.cols) == (F, 3, 5)
    assert P.entries == M.entries


def test_parse_matrix_errors():
    with pytest.raises(ValueError):
        parse_matrix("")
    with pytest.raises(ValueError):
        parse_matrix("2 3\n0 1 0\n1 0 1\n")  # header too short
    with pytest.raises(ValueError):
        parse_matrix("2 3 2\n0 1 0\n")  # missing row
    with pytest.raises(ValueError):
        parse_matrix("1 3 2\n0 1\n")  # short row
    with pytest.raises(ValueError):
        parse_matrix("1 2 2\n0 5\n")  # entry out of range
    with pytest.raises(ValueError):
        parse_matrix("1 2 6\n0 1\n")  # 6 is not a prime power
    with pytest.raises(ValueError):
        parse_matrix("1 2 2\n0 x\n")
