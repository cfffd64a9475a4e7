"""Exact linear algebra over the prime field F_p, in pure Python.

A matrix is an `FpMatrix`: its shape, p, and one {column: value} dict per
row, holding the row's nonzero entries as Python ints in [1, p), so every
product and sum is exact for any prime p that `is_prime` decides. Its one
constructor, `FpMatrix(rows, cols, p)`, holds rows already in that form,
as the skew layer's assembler, the one-variable spans and the group layer
make them, so a sparse system is never held densely.

Elimination is the sparse echelon loop of `echelon`, which this module
shares with the rational Lie layer: `_rref` runs it mod p on copies of the
rows of an `FpMatrix`, and returns the reduced echelon basis as
{column: value} dicts by ascending pivot. That form is unique for a row
space, so every computed basis and every solution is deterministic and
independent of the row order. `RowSpace` wraps `_rref` and answers every
span question (membership, equality, filtration pieces), and rank, kernel
and solve are built on it. Kernel vectors and solutions are {column: value}
dicts too, by ascending column, and both are re-verified by substitution on
the rows. No function here changes the rows of an `FpMatrix` it is given.
`rref` remains as a nested-list view for the benchmark's tracer, which wraps
it and reads `rows` and `cols` of the `rank` and `kernel_basis` argument.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .echelon import _echelon, _reduce, is_prime


class DimensionMismatch(ValueError):
    pass


# A sparse row or vector: {column: value}, values in [1, p).
Row = Dict[int, int]


class FpMatrix:
    """A rows x cols matrix over F_p, held as `data`: one Row per row.

    The rows' values must lie in [1, p) and their columns below cols. The
    rows are held, not copied.
    """

    def __init__(self, data: List[Row], cols: int, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.data = data
        self.rows, self.cols = len(data), cols
        self.p = p


def _rref(m: FpMatrix) -> Dict[int, Row]:
    """The reduced echelon basis of the rows of m over F_p."""
    p = m.p
    return _echelon(map(dict, m.data), lambda x: x % p, lambda x: pow(x, -1, p))


def _times(m: FpMatrix, vecs: Iterable[Row]) -> Iterator[Row]:
    """m . v mod p for each vector v, as {row: value} without zeros.

    The rows of m are turned into columns once, so the cost is linear in
    the entries each vector touches; the products run on Python ints.
    """
    p = m.p
    by_col: Dict[int, Row] = {}
    for r, row in enumerate(m.data):
        for c, v in row.items():
            by_col.setdefault(c, {})[r] = v
    for vec in vecs:
        acc: Row = {}
        for c, x in vec.items():
            for r, v in by_col.get(c, {}).items():
                acc[r] = acc.get(r, 0) + x * v
        yield {r: s % p for r, s in acc.items() if s % p}


def rref(m: FpMatrix) -> Tuple[List[List[int]], List[int]]:
    """Reduced row echelon form of m, as rows x cols nested lists with zero
    rows below, and its pivot column indices."""
    basis = _rref(m)
    dense = [[row.get(c, 0) for c in range(m.cols)] for row in basis.values()]
    return dense + [[0] * m.cols for _ in range(m.rows - len(basis))], list(basis)


class RowSpace:
    """The span of the rows of an `FpMatrix`, held as its reduced echelon
    basis: `basis` maps each pivot column, ascending, to its row.

    Two spanning sets of one space give equal `basis`.
    """

    def __init__(self, m: FpMatrix):
        self.p, self.cols = m.p, m.cols
        self.basis = _rref(m)

    def contains(self, q: FpMatrix) -> List[bool]:
        """Whether each row of q lies in the space: each row is reduced
        against the basis once."""
        if q.cols != self.cols:
            raise DimensionMismatch(f"query width {q.cols} != dimension {self.cols}")
        p = self.p
        return [not _reduce(dict(w), self.basis, lambda x: x % p) for w in q.data]

    def low_part(self, cut: int) -> List[Row]:
        """The basis rows with no support before coordinate cut, which are
        those with pivot >= cut: a basis of the intersection of the space
        with the span of coordinates >= cut. The rows are the basis's own."""
        return [row for c, row in self.basis.items() if c >= cut]


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
    p, n = m.p, m.cols
    b = {r: v for r, x in enumerate(rhs) if (v := int(x) % p)}
    aug = [{**row, n: b[r]} if r in b else row for r, row in enumerate(m.data)]
    basis = _rref(FpMatrix(aug, n + 1, p))
    if n in basis:
        return None
    x = {c: row[n] for c, row in basis.items() if n in row}
    if next(_times(m, [x])) != b:
        raise AssertionError("solve result failed substitution check")
    return x
