"""Dense linear algebra over GF(q).

Every matrix in this project is small (n stays under a few hundred), so the
implementation favours clarity over micro-optimization: plain Gaussian
elimination on lists of ints, one field operation at a time. A row
operation skips the zero entries of the row it subtracts, so sparse
matrices, such as the generators of long Hamming codes, cost little. One
step, eliminate, reduces a vector against an echelon basis; rank, in_span, the
subset-profile walks, scalar simulation and search's projective classes all
run on it, and only rref keeps its own row operations. Row and column
indices are 0-based throughout the API; anything user-facing that prints
coordinates converts to 1-based at the rendering step.

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


Pivot = Tuple[int, List[int]]
Basis = List[Pivot]


def eliminate(field: FieldSpec, basis: Basis, vector: Sequence[int]) -> Optional[Pivot]:
    """Reduce a vector against an echelon basis; None if it lies in the span.

    Otherwise returns (pivot, residual scaled so residual[pivot] == 1),
    ready to append. basis holds (pivot, w) pairs in insertion order, each
    w zero at the pivots of the pairs before it, which is what appending
    the non-None results of this function builds.
    """
    v = list(vector)
    for piv, w in basis:
        c = v[piv]
        if c:
            v = [field.sub(x, field.mul(c, y)) if y else x for x, y in zip(v, w)]
    piv = next((t for t, x in enumerate(v) if x), None)
    if piv is None:
        return None
    inv = field.inv(v[piv])
    if inv != 1:
        v = [field.mul(inv, x) for x in v]
    return piv, v


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
    """Reduced row echelon form and the (strictly increasing) pivot columns."""
    F = M.field
    sub, mul = F.sub, F.mul
    work = [row[:] for row in M.entries]
    pivots: List[int] = []
    r = 0
    for c in range(M.cols):
        if r == M.rows:
            break
        pivot = None
        for i in range(r, M.rows):
            if work[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        pinv = F.inv(work[r][c])
        prow = work[r]
        nonzero = [(j, y if pinv == 1 else mul(pinv, y)) for j, y in enumerate(prow) if y]
        for j, y in nonzero:
            prow[j] = y
        for i, row in enumerate(work):
            f = row[c]
            if f and i != r:
                for j, y in nonzero:
                    row[j] = sub(row[j], mul(f, y))
        pivots.append(c)
        r += 1
    return MatrixGF(F, M.rows, M.cols, work), pivots


def kernel_basis(M: MatrixGF) -> MatrixGF:
    """Basis of the right null space {x : M x^T = 0}, one vector per row.

    The result has cols - rank(M) rows; solving from the RREF with one free
    variable set to 1 per basis vector keeps the output deterministic.
    """
    return rank_and_kernel(M)[1]


def rank_and_kernel(M: MatrixGF) -> Tuple[int, MatrixGF]:
    """(rank(M), kernel_basis(M)), both from one reduction to RREF."""
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
    return len(pivots), MatrixGF(F, len(rows), M.cols, rows)


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
