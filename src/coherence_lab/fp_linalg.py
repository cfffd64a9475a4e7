"""Dense exact linear algebra over the prime field F_p.

Matrices are stored as numpy int64 arrays with entries reduced into [0, p).
All arithmetic is exact; for the small primes used here (p <= 5 in practice)
int64 products can never overflow between reductions.

Elimination uses the lexicographically first nonzero pivot (scan columns left
to right, take the topmost usable row), so every computed basis and every
solution is deterministic and reproducible. `_rref` is the only elimination
loop; `RowSpace` wraps it and answers every span question (membership,
equality, filtration pieces), and rank, kernel and solve are built on it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np


class DimensionMismatch(ValueError):
    pass


def is_prime(p: int) -> bool:
    """Trial-division primality check; adequate for word-sized moduli."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class FpMatrix:
    """A rows x cols matrix over F_p."""

    def __init__(self, rows: int, cols: int, entries: Sequence[int], p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"expected {rows * cols} entries, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self.p = p
        self._a = np.array(entries, dtype=np.int64).reshape(rows, cols) % p

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], p: int) -> "FpMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: List[int] = []
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
            flat.extend(int(x) for x in r)
        return cls(nrows, ncols, flat, p)

    @classmethod
    def from_numpy(cls, a: np.ndarray, p: int) -> "FpMatrix":
        m = cls(0, 0, [], p)
        m.rows, m.cols = int(a.shape[0]), int(a.shape[1])
        m._a = np.asarray(a, dtype=np.int64).reshape(m.rows, m.cols) % p
        return m

    @classmethod
    def identity(cls, n: int, p: int) -> "FpMatrix":
        return cls.from_numpy(np.eye(n, dtype=np.int64), p)

    @classmethod
    def zeros(cls, rows: int, cols: int, p: int) -> "FpMatrix":
        return cls.from_numpy(np.zeros((rows, cols), dtype=np.int64), p)

    def entry(self, i: int, j: int) -> int:
        return int(self._a[i, j])

    def to_rows(self) -> List[List[int]]:
        return [[int(x) for x in r] for r in self._a]

    def numpy(self) -> np.ndarray:
        return self._a.copy()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpMatrix)
            and other.p == self.p
            and other._a.shape == self._a.shape
            and bool(np.array_equal(other._a, self._a))
        )

    def __repr__(self) -> str:
        return f"FpMatrix({self.to_rows()}, p={self.p})"


def _rref(a: np.ndarray, p: int):
    """Reduced row echelon form in place; returns the pivot column list."""
    nrows, ncols = a.shape
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        other = np.nonzero(a[:, c])[0]
        other = other[other != r]
        if other.size:
            a[other] = (a[other] - np.outer(a[other, c], a[r])) % p
        pivots.append(c)
        r += 1
    return pivots


def rref(m: FpMatrix):
    """Reduced row echelon form. Returns (matrix, pivot column indices)."""
    a = m.numpy()
    pivots = _rref(a, m.p)
    return FpMatrix.from_numpy(a, m.p), pivots


class RowSpace:
    """The span of some vectors in F_p^dim, held as its reduced echelon basis.

    Zero vectors are dropped before elimination. `rows` are sorted by pivot
    column, so two spanning sets of one space give equal `rows`.
    """

    def __init__(self, vectors, p: int, dim: int):
        a = np.asarray(vectors, dtype=np.int64).reshape(len(vectors), dim)
        # One copy of the input at a time: the masked copy is the working one.
        a = a[(a % p).any(axis=1)]
        a %= p
        self.p = p
        self.pivots = _rref(a, p)
        self.rows = a[: len(self.pivots)]

    def contains(self, v):
        """Whether v lies in the space; one bool per vector for a stack."""
        w = np.asarray(v, dtype=np.int64) % self.p
        return ~((w - w[..., self.pivots] @ self.rows) % self.p).any(axis=-1)

    def low_part(self, cut: int) -> np.ndarray:
        """The rows with no support before coordinate cut: a basis of the
        intersection of the space with the span of coordinates >= cut."""
        return self.rows[~self.rows[:, :cut].any(axis=1)]


def rank(m: FpMatrix) -> int:
    return len(RowSpace(m._a, m.p, m.cols).pivots)


def kernel_basis(m: FpMatrix) -> List[List[int]]:
    """A basis of the right null space of m, one vector per free column.

    Basis vectors are indexed by the free columns in ascending order; each
    has a 1 in its free coordinate. Every vector is re-verified by exact
    substitution before being returned.
    """
    p = m.p
    space = RowSpace(m._a, p, m.cols)
    pivot_set = set(space.pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    basis: List[List[int]] = []
    for f in free:
        v = [0] * m.cols
        v[f] = 1
        for r_idx, c in enumerate(space.pivots):
            v[c] = (-int(space.rows[r_idx, f])) % p
        basis.append(v)
    if basis:
        check = (m._a @ np.array(basis, dtype=np.int64).T) % p
        if np.any(check):
            raise AssertionError("kernel vector failed substitution check")
    return basis


def solve(m: FpMatrix, rhs: Sequence[int]) -> Optional[List[int]]:
    """Some x with m.x = rhs, or None.

    Free variables are set to zero, so the result is the lexicographically
    first pivot solution. A returned x is verified by substitution.
    """
    if len(rhs) != m.rows:
        raise DimensionMismatch(f"rhs length {len(rhs)} != {m.rows} rows")
    b = np.array(rhs, dtype=np.int64)
    space = RowSpace(np.column_stack([m._a, b]), m.p, m.cols + 1)
    if m.cols in space.pivots:
        return None
    x = np.zeros(m.cols, dtype=np.int64)
    x[space.pivots] = space.rows[:, m.cols]
    if np.any((m._a @ x - b) % m.p):
        raise AssertionError("solve result failed substitution check")
    return x.tolist()
