"""Exact linear algebra over the prime field F_p.

A matrix is an `FpMatrix`: its shape, p, and its nonzero entries as
parallel row, column and value arrays, row-major, with values in [1, p).
It is built from a dense array (`FpMatrix(a, p)`, one `np.nonzero` scan) or
from entries (`FpMatrix.entries`), as the skew layer's assembler makes
them, so a sparse system is never held as a dense array. Values are int64,
so p must lie below 2^63; every product and sum of them runs on Python
ints, so all arithmetic is exact.

Elimination is the sparse echelon loop of `echelon`, which this module
shares with the rational Lie layer: `_rref` runs it mod p on the rows of an
`FpMatrix`, and returns the reduced echelon basis as {column: value} dicts
by ascending pivot. That form is unique for a row space, so every computed
basis and every solution is deterministic and independent of the row
order. `RowSpace` wraps `_rref` and answers every span question
(membership, equality, filtration pieces), and rank, kernel and solve are
built on it. Kernel vectors and solutions are {column: value} dicts too, by
ascending column, and both are re-verified by substitution on the entries.
`rref` remains as a dense view for the benchmark's tracer, which wraps it
and reads `rows` and `cols` of the `rank` and `kernel_basis` argument.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .echelon import _echelon, _reduce, is_prime


class DimensionMismatch(ValueError):
    pass


class FpMatrix:
    """A rows x cols matrix over F_p, held as its nonzero entries: parallel
    int64 arrays `row`, `col` and `val` in row-major order, with values in
    [1, p) and no (row, col) pair twice. The prime p must lie below 2^63, so
    that every value fits in int64.

    `FpMatrix(a, p)` takes the nonzero entries mod p of a 2-D array with
    entries in any range; `FpMatrix.entries` takes them as index lists.
    """

    def __init__(self, a, p: int):
        a = np.asarray(a, dtype=np.int64)
        row, col = np.nonzero(a)
        self._keep(a.shape, p, row, col, a[row, col])

    @classmethod
    def entries(cls, row, col, val, shape: Tuple[int, int], p: int) -> "FpMatrix":
        """The matrix with entry val[i] at (row[i], col[i]), in any order
        and any range. Raises ValueError if an index lies outside the shape
        or a (row, col) pair repeats."""
        row, col, val = (np.asarray(x, dtype=np.int64) for x in (row, col, val))
        rows, cols = shape
        if len(row) and not (
            0 <= row.min() and row.max() < rows and 0 <= col.min() and col.max() < cols
        ):
            raise ValueError(f"entry index outside the {rows} x {cols} shape")
        order = np.lexsort((col, row))
        row, col = row[order], col[order]
        if ((row[1:] == row[:-1]) & (col[1:] == col[:-1])).any():
            raise ValueError("repeated (row, col) entry")
        m = cls.__new__(cls)
        m._keep(shape, p, row, col, val[order])
        return m

    def _keep(self, shape, p: int, row, col, val) -> None:
        """Store the row-major entries whose values do not vanish mod p."""
        if p >= 2**63:
            raise ValueError(f"modulus {p} is not below 2^63: values are int64")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.rows, self.cols = shape
        self.p = p
        val = val % p
        hit = val != 0
        self.row, self.col, self.val = row[hit], col[hit], val[hit]


# A sparse row or vector: {column: value}, values in [1, p).
Row = Dict[int, int]


def _dict_rows(m: FpMatrix) -> Iterator[Row]:
    """The rows of m as dicts, zero rows included."""
    cols, vals = m.col.tolist(), m.val.tolist()
    start = 0
    for end in np.cumsum(np.bincount(m.row, minlength=m.rows)).tolist():
        yield dict(zip(cols[start:end], vals[start:end]))
        start = end


def _rref(m: FpMatrix) -> Dict[int, Row]:
    """The reduced echelon basis of the rows of m over F_p."""
    p = m.p
    return _echelon(_dict_rows(m), lambda x: x % p, lambda x: pow(x, -1, p))


def _dense(rows: Sequence[Row], shape: Tuple[int, int]) -> np.ndarray:
    """The int64 array of the given shape with the rows at its top."""
    out = np.zeros(shape, dtype=np.int64)
    at_r = [i for i, row in enumerate(rows) for _ in row]
    at_c = [c for row in rows for c in row]
    out[at_r, at_c] = [v for row in rows for v in row.values()]
    return out


def _times(m: FpMatrix, vecs: Iterable[Row]) -> Iterator[Row]:
    """m . v mod p for each vector v, as {row: value} without zeros.

    m's entries are indexed by column once, so the cost is linear in the
    entries each vector touches; the products run on Python ints.
    """
    p = m.p
    by_col: Dict[int, List[Tuple[int, int]]] = {}
    for r, c, v in zip(m.row.tolist(), m.col.tolist(), m.val.tolist()):
        by_col.setdefault(c, []).append((r, v))
    for vec in vecs:
        acc: Row = {}
        for c, x in vec.items():
            for r, v in by_col.get(c, ()):
                acc[r] = (acc.get(r, 0) + x * v) % p
        yield {r: v for r, v in acc.items() if v}


def rref(m: FpMatrix) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form of m, an array of m's shape with zero rows
    below, and its pivot column indices."""
    basis = _rref(m)
    return _dense(list(basis.values()), (m.rows, m.cols)), list(basis)


class RowSpace:
    """The span of the rows of an `FpMatrix`, held as its reduced echelon
    basis: `basis` maps each pivot column, ascending, to its row.

    Two spanning sets of one space give equal `basis`.
    """

    def __init__(self, m: FpMatrix):
        self.p, self.cols = m.p, m.cols
        self.basis = _rref(m)

    @property
    def pivots(self) -> List[int]:
        return list(self.basis)

    def contains(self, q: FpMatrix) -> np.ndarray:
        """Whether each row of q lies in the space, as a bool array: each
        row is reduced against the basis once."""
        if q.cols != self.cols:
            raise DimensionMismatch(f"query width {q.cols} != dimension {self.cols}")
        p = self.p
        return np.fromiter(
            (not _reduce(w, self.basis, lambda x: x % p) for w in _dict_rows(q)),
            dtype=bool,
            count=q.rows,
        )

    def low_part(self, cut: int) -> np.ndarray:
        """The basis rows with no support before coordinate cut, which are
        those with pivot >= cut, as a dense array: a basis of the
        intersection of the space with the span of coordinates >= cut."""
        rows = [row for c, row in self.basis.items() if c >= cut]
        return _dense(rows, (len(rows), self.cols))


def rank(m: FpMatrix) -> int:
    return len(_rref(m))


def kernel_basis(m: FpMatrix) -> List[Row]:
    """A basis of the right null space of m, one vector per free column, as
    {column: value} by ascending column.

    Vectors come by ascending free column; each has a 1 at its free column
    and -row_c[free] at each pivot c. Every vector is re-verified by exact
    substitution before being returned.
    """
    p = m.p
    basis = _rref(m)
    vecs = {f: {f: 1} for f in range(m.cols) if f not in basis}
    for c, row in basis.items():
        for f, v in row.items():
            if f != c:
                vecs[f][c] = -v % p
    out = [dict(sorted(v.items())) for v in vecs.values()]
    if any(_times(m, out)):
        raise AssertionError("kernel vector failed substitution check")
    return out


def solve(m: FpMatrix, rhs: Sequence[int]) -> Optional[Row]:
    """Some x with m.x = rhs, as {column: value} by ascending column, or
    None.

    Free variables are set to zero, so the result is the lexicographically
    first pivot solution. A returned x is verified by substitution.
    """
    if len(rhs) != m.rows:
        raise DimensionMismatch(f"rhs length {len(rhs)} != {m.rows} rows")
    p = m.p
    b = np.asarray(rhs, dtype=np.int64) % p
    at = np.flatnonzero(b)
    basis = _rref(
        FpMatrix.entries(
            np.concatenate([m.row, at]),
            np.concatenate([m.col, np.full(len(at), m.cols)]),
            np.concatenate([m.val, b[at]]),
            (m.rows, m.cols + 1),
            p,
        )
    )
    if m.cols in basis:
        return None
    x = {c: row[m.cols] for c, row in basis.items() if m.cols in row}
    if next(_times(m, [x])) != dict(zip(at.tolist(), b[at].tolist())):
        raise AssertionError("solve result failed substitution check")
    return x
