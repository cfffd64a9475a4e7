"""Exact linear algebra over the prime field F_p.

Matrices are stored as numpy int64 arrays with entries reduced into [0, p).
All arithmetic is exact. Matrix products go through `_mulmod`, which runs
them as float64 (BLAS) products whenever every exact sum of products stays
below 2^53, so float64 only ever carries exact integers, and on Python ints
(object arrays) beyond that.

Elimination is sparse: `_rref` reads each row's nonzero entries once into a
dict and works on Python ints, so it is exact for every p. Each row is
reduced against the basis so far, and its smallest remaining column becomes
a new pivot, which is then cleared from the earlier basis rows. The basis
is fully reduced after every row, so at the end it is the reduced row
echelon form. That form is unique for a row space, so every computed basis
and every solution is deterministic and independent of the row order.
`_rref` is the only elimination loop; `RowSpace` wraps it and answers every
span question (membership, equality, filtration pieces), and rank, kernel
and solve are built on it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

import numpy as np


class DimensionMismatch(ValueError):
    pass


# Miller-Rabin with the first 13 primes as bases is exact for every n below
# MR_EXACT_BOUND (Sorenson & Webster, Math. Comp. 2017, arXiv:1509.00864).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BOUND = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Exact primality for p < MR_EXACT_BOUND; larger p raises ValueError.

    Trial division by the 13 base primes settles every p < 43^2 without a
    modular power; above that, deterministic Miller-Rabin on those bases.
    """
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    if p < 43 * 43:
        return True
    if p >= MR_EXACT_BOUND:
        raise ValueError(f"p={p} is beyond the exact primality range")
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
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


def _rref(a: np.ndarray, p: int) -> List[int]:
    """Reduced row echelon form of `a` (entries in [0, p)) in place, with
    zero rows below; returns the pivot column list.

    The sparse elimination of the module docstring: rows are {column: value}
    dicts, and a column -> pivots index finds the basis rows that hold a new
    pivot's column without scanning every row.
    """
    ri, ci = np.nonzero(a)
    cols, vals = ci.tolist(), a[ri, ci].tolist()
    ends = np.cumsum(np.bincount(ri)).tolist()
    basis: Dict[int, Dict[int, int]] = {}  # pivot -> row off the pivot
    holders: Dict[int, Set[int]] = {}  # free column -> pivots holding it
    start = 0
    for end in ends:
        row = dict(zip(cols[start:end], vals[start:end]))
        start = end
        for c in [c for c in row if c in basis]:
            f = row.pop(c)
            for k, v in basis[c].items():
                x = (row.get(k, 0) - f * v) % p
                if x:
                    row[k] = x
                else:
                    del row[k]
        if not row:
            continue
        piv = min(row)
        inv = pow(row.pop(piv), p - 2, p)
        new = {k: v * inv % p for k, v in row.items()}
        for q in holders.pop(piv, ()):
            b = basis[q]
            f = b.pop(piv)
            for k, v in new.items():
                x = (b.get(k, 0) - f * v) % p
                if x:
                    if k not in b:
                        holders.setdefault(k, set()).add(q)
                    b[k] = x
                else:
                    del b[k]
                    holders[k].discard(q)
        basis[piv] = new
        for k in new:
            holders.setdefault(k, set()).add(piv)
    pivots = sorted(basis)
    rows = [{c: 1, **basis[c]} for c in pivots]
    at_r = [i for i, row in enumerate(rows) for _ in row]
    at_c = [k for row in rows for k in row]
    a.fill(0)
    a[at_r, at_c] = [v for row in rows for v in row.values()]
    return pivots


def _mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for entries in [0, p).

    Each entry of the product is a sum of inner_dim products below (p-1)^2,
    so under the float64 bound every partial sum is an integer below 2^53
    and the BLAS product is exact in any summation order; above it the
    product runs on Python ints, which are exact for every p.
    """
    bound = a.shape[-1] * (p - 1) ** 2
    if bound < 2**53:
        prod = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    else:
        prod = a.astype(object) @ b.astype(object)
    return (prod % p).astype(np.int64, copy=False)


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
        # One working copy beside the caller's array: the rows kept, reduced
        # in place, or the reduction itself when no row is dropped. A row
        # that vanishes only mod p is kept and ends below the basis.
        a = np.asarray(vectors, dtype=np.int64).reshape(len(vectors), dim)
        nonzero = a.any(axis=1)
        if nonzero.all():
            a = a % p
        else:
            a = a[nonzero]
            a %= p
        self.p = p
        self.pivots = _rref(a, p)
        self.rows = a[: len(self.pivots)]

    def contains(self, v):
        """Whether v lies in the space; one bool per vector for a stack."""
        w = np.asarray(v, dtype=np.int64) % self.p
        return ~(w - _mulmod(w[..., self.pivots], self.rows, self.p)).any(axis=-1)

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
    is_free = np.ones(m.cols, dtype=bool)
    is_free[space.pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((len(free), m.cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, space.pivots] = (-space.rows[:, free].T) % p
    if _mulmod(m._a, basis.T, p).any():
        raise AssertionError("kernel vector failed substitution check")
    return basis.tolist()


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
    if np.any((_mulmod(m._a, x, m.p) - b) % m.p):
        raise AssertionError("solve result failed substitution check")
    return x.tolist()
