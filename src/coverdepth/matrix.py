"""Dense linear algebra over GF(q).

Every matrix in this project is small (n stays under a few hundred), so the
implementation favours clarity over micro-optimization: plain Gaussian
elimination on lists of ints, one field operation at a time. One step,
eliminate, reduces a vector against an echelon basis whose rows are kept as
their nonzero (index, entry) pairs, so a row operation touches only those
entries and sparse matrices, such as the generators of long Hamming codes,
cost little. rank, rref (and through it kernels and canonical row spaces),
in_span, the subset-profile walks, scalar simulation and search's projective
classes all run on it. Row and column indices are 0-based throughout the
API; anything user-facing that prints coordinates converts to 1-based at the
rendering step.

Matrix text format (shared with the CLI): first line "k n q", then k lines
of n whitespace-separated integers in [0, q) using the element encoding from
the gf module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .gf import FieldSpec, field_from_order


@dataclass
class MatrixGF:
    field: FieldSpec
    rows: int
    cols: int
    entries: List[List[int]]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.entries)}")
        q = self.field.q
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError(f"expected {self.cols} columns, got {len(row)}")
            for x in row:
                if not 0 <= x < q:
                    raise ValueError(f"entry {x!r} out of range for {self.field!r}")


def matrix(field: FieldSpec, rows_data: Iterable[Iterable[int]]) -> MatrixGF:
    entries = [list(r) for r in rows_data]
    cols = len(entries[0]) if entries else 0
    return MatrixGF(field, len(entries), cols, entries)


def zeros(field: FieldSpec, rows: int, cols: int) -> MatrixGF:
    return MatrixGF(field, rows, cols, [[0] * cols for _ in range(rows)])


def identity(field: FieldSpec, n: int) -> MatrixGF:
    entries = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    return MatrixGF(field, n, n, entries)


def from_columns(field: FieldSpec, columns: Sequence[Sequence[int]]) -> MatrixGF:
    cols = [list(c) for c in columns]
    k = len(cols[0]) if cols else 0
    entries = [[c[i] for c in cols] for i in range(k)]
    return MatrixGF(field, k, len(cols), entries)


def columns_of(M: MatrixGF) -> List[Tuple[int, ...]]:
    return [tuple(M.entries[i][j] for i in range(M.rows)) for j in range(M.cols)]


def transpose(M: MatrixGF) -> MatrixGF:
    entries = [[M.entries[i][j] for i in range(M.rows)] for j in range(M.cols)]
    return MatrixGF(M.field, M.cols, M.rows, entries)


def mat_mul(A: MatrixGF, B: MatrixGF) -> MatrixGF:
    if A.field != B.field:
        raise ValueError("fields differ")
    if A.cols != B.rows:
        raise ValueError(f"inner dimensions differ: {A.cols} vs {B.rows}")
    F = A.field
    out = [[0] * B.cols for _ in range(A.rows)]
    for i in range(A.rows):
        arow = A.entries[i]
        orow = out[i]
        for t in range(A.cols):
            a = arow[t]
            if a:
                brow = B.entries[t]
                for j in range(B.cols):
                    if brow[j]:
                        orow[j] = F.add(orow[j], F.mul(a, brow[j]))
    return MatrixGF(F, A.rows, B.cols, out)


Pivot = Tuple[int, List[Tuple[int, int]]]
Basis = List[Pivot]


def _dense(n: int, pairs: Iterable[Tuple[int, int]]) -> List[int]:
    """The length-n vector with the given nonzero (index, entry) pairs."""
    v = [0] * n
    for j, x in pairs:
        v[j] = x
    return v


def eliminate(field: FieldSpec, basis: Basis, vector: Sequence[int]) -> Optional[Pivot]:
    """Reduce a vector against an echelon basis; None if it lies in the span.

    Otherwise returns (pivot, residual), ready to append: the residual as
    its nonzero (index, entry) pairs in index order, scaled so that the
    first pair is (pivot, 1). basis holds (pivot, pairs) in insertion order,
    each row zero at the pivots of the rows before it, which is what
    appending the non-None results of this function builds. Subtracting a
    basis row touches only its nonzero pairs.
    """
    v = list(vector)
    for piv, row in basis:
        c = v[piv]
        if c:
            for j, y in row:
                v[j] = field.sub(v[j], field.mul(c, y))
    residual = [(j, x) for j, x in enumerate(v) if x]
    if not residual:
        return None
    piv, lead = residual[0]
    if lead != 1:
        inv = field.inv(lead)
        residual = [(j, field.mul(inv, x)) for j, x in residual]
    return piv, residual


def span_basis(field: FieldSpec, vectors: Iterable[Sequence[int]], cap: int = -1) -> Basis:
    """An echelon basis of the span of the vectors, stopping once cap vectors are in it."""
    basis: Basis = []
    for vector in vectors:
        reduced = eliminate(field, basis, vector)
        if reduced is not None:
            basis.append(reduced)
            if len(basis) == cap:
                break
    return basis


def rank(M: MatrixGF) -> int:
    """Rank over GF(q), as the size of an echelon basis of the rows; 0 for an empty matrix."""
    return len(span_basis(M.field, M.entries))


def rref(M: MatrixGF) -> Tuple[MatrixGF, List[int]]:
    """Reduced row echelon form and the (strictly increasing) pivot columns.

    Back-substitution on an echelon basis of the rows: from the largest
    pivot down, each basis row is reduced against the rows already fully
    reduced, all of larger pivot, which zeroes it at their pivots. The RREF
    of a matrix is unique, so the basis found first does not matter.
    """
    F, n = M.field, M.cols
    reduced: Basis = []
    for _, row in sorted(span_basis(F, M.entries), reverse=True):
        reduced.append(eliminate(F, reduced, _dense(n, row)))
    reduced.reverse()
    entries = [_dense(n, row) for _, row in reduced]
    entries += [[0] * n for _ in range(M.rows - len(reduced))]
    return MatrixGF(F, M.rows, n, entries), [piv for piv, _ in reduced]


def kernel_basis(M: MatrixGF) -> MatrixGF:
    """Basis of the right null space {x : M x^T = 0}, one vector per row.

    The result has cols - rank(M) rows; solving from the RREF with one free
    variable set to 1 per basis vector keeps the output deterministic.
    """
    R, pivots = rref(M)
    F = M.field
    pivot_set = set(pivots)
    free = [c for c in range(M.cols) if c not in pivot_set]
    rows = []
    for f in free:
        v = [0] * M.cols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = F.neg(R.entries[r][f]) if R.entries[r][f] else 0
        rows.append(v)
    return MatrixGF(F, len(rows), M.cols, rows)


def in_span(field: FieldSpec, vectors: Sequence[Sequence[int]], v: Sequence[int]) -> bool:
    """True iff v lies in the GF(q)-span of the given vectors."""
    if any(len(w) != len(v) for w in vectors):
        raise ValueError("dimension mismatch")
    return eliminate(field, span_basis(field, vectors), v) is None


def row_space_canonical(M: MatrixGF) -> MatrixGF:
    """RREF with zero rows removed: equal row spaces give identical outputs."""
    R, pivots = rref(M)
    return MatrixGF(M.field, len(pivots), M.cols, R.entries[: len(pivots)])


def parse_matrix(text: str) -> MatrixGF:
    """Parse the "k n q" text format; the field is rebuilt from its order."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError('header must be "k n q"')
    k, n, q = (int(x) for x in header)
    field = field_from_order(q)
    if len(lines) != k + 1:
        raise ValueError(f"expected {k} rows, got {len(lines) - 1}")
    entries = []
    for ln in lines[1:]:
        row = [int(x) for x in ln.split()]
        if len(row) != n:
            raise ValueError(f"expected {n} entries per row, got {len(row)}")
        entries.append(row)
    return MatrixGF(field, k, n, entries)


def format_matrix(M: MatrixGF) -> str:
    lines = [f"{M.rows} {M.cols} {M.field.q}"]
    for row in M.entries:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
