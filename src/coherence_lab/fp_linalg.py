"""Exact linear algebra over the prime field F_p.

A matrix is an `FpMatrix`: its shape, p, and its nonzero entries as
parallel row, column and value arrays, row-major, with values in [1, p).
It is built from a dense array (`FpMatrix(a, p)`, one `np.nonzero` scan) or
from entries (`FpMatrix.entries`), as the skew layer's assembler makes
them, so a sparse system is never held as a dense array. All arithmetic is
exact. Dense products go through `_mulmod`, which runs them as float64
(BLAS) products whenever every exact sum of products stays below 2^53, so
float64 only ever carries exact integers, and on Python ints (object
arrays) beyond that; products of an `FpMatrix` with a dense array run on
its entries (`_entries_mulmod`).

Elimination is sparse: `_rref` reads the entries of each row into a dict
and works on Python ints, so it is exact for every p. Each row is reduced
against the basis so far, and its smallest remaining column becomes a new
pivot, which is then cleared from the earlier basis rows. The basis is
fully reduced after every row, so at the end it is the reduced row echelon
form, which `_rref` returns as a new dense array. That form is unique for a
row space, so every computed basis and every solution is deterministic and
independent of the row order. `_rref` is the only elimination loop;
`RowSpace` wraps it and answers every span question (membership, equality,
filtration pieces), and rank, kernel and solve are built on it. `rref`
remains for the benchmark's tracer, which wraps it and reads `rows` and
`cols` of the `rank` and `kernel_basis` argument.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

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
    """A rows x cols matrix over F_p, held as its nonzero entries: parallel
    int64 arrays `row`, `col` and `val` in row-major order, with values in
    [1, p) and no (row, col) pair twice.

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
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.rows, self.cols = shape
        self.p = p
        val = val % p
        hit = val != 0
        self.row, self.col, self.val = row[hit], col[hit], val[hit]


def _rref(m: FpMatrix) -> Tuple[List[int], np.ndarray]:
    """Pivot columns and reduced echelon basis (rank x cols) of the rows of
    m over F_p.

    The sparse elimination of the module docstring: rows are {column: value}
    dicts, and a column -> pivots index finds the basis rows that hold a new
    pivot's column without scanning every row.
    """
    p = m.p
    cols, vals = m.col.tolist(), m.val.tolist()
    ends = np.cumsum(np.bincount(m.row)).tolist()
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
    out = np.zeros((len(pivots), m.cols), dtype=np.int64)
    out[at_r, at_c] = [v for row in rows for v in row.values()]
    return pivots, out


# Cells of a product tile: `_entries_mulmod` takes at most this many
# products at once, and `RowSpace.contains` densifies and multiplies its
# query in tiles of about this many cells, never fewer than _SIDE rows or
# columns at a time.
_TILE = 1 << 16
_SIDE = 1 << 8


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


def _entries_mulmod(m: FpMatrix, b: np.ndarray) -> np.ndarray:
    """m @ b mod p on the entries of m, for b (m.cols x k) with entries in
    [0, p), taken in column tiles of b of at most _TILE products.

    Each product is reduced mod p before the row sums. Products run in int64
    while (p - 1)^2 fits in it and on Python ints beyond; a row sum of
    reduced products could only wrap int64 past 2^63 / p > 3 * 10^9 terms.
    """
    p = m.p
    kind = np.int64 if (p - 1) ** 2 < 2**63 else object
    out = np.zeros((m.rows, b.shape[1]), dtype=np.int64)
    starts = np.flatnonzero(np.diff(m.row, prepend=-1))
    if not len(starts):
        return out
    val = m.val.astype(kind)[:, None]
    step = max(1, _TILE // len(val))
    for j in range(0, b.shape[1], step):
        prod = val * b[m.col, j : j + step].astype(kind) % p
        out[m.row[starts], j : j + step] = np.add.reduceat(prod, starts) % p
    return out


def rref(m: FpMatrix) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form of m, an array of m's shape with zero rows
    below, and its pivot column indices."""
    pivots, rows = _rref(m)
    return np.pad(rows, [(0, m.rows - len(pivots)), (0, 0)]), pivots


class RowSpace:
    """The span of the rows of an `FpMatrix`, held as its reduced echelon
    basis.

    `rows` are sorted by pivot column, so two spanning sets of one space
    give equal `rows`.
    """

    def __init__(self, m: FpMatrix):
        self.p = m.p
        self.pivots, self.rows = _rref(m)

    def contains(self, q: FpMatrix) -> np.ndarray:
        """Whether each row of q lies in the space, as a bool array.

        A row w lies in it iff w = w[pivots] . rows. The rows of q are
        densified, and the basis multiplied, one tile at a time, so neither
        is ever copied whole.
        """
        p, dim = self.p, self.rows.shape[1]
        if q.cols != dim:
            raise DimensionMismatch(f"query width {q.cols} != dimension {dim}")
        step = max(_SIDE, _TILE // max(dim, 1))
        out = np.ones(q.rows, dtype=bool)
        for i in range(0, q.rows, step):
            lo, hi = np.searchsorted(q.row, [i, i + step])
            w = np.zeros((min(step, q.rows - i), dim), dtype=np.int64)
            w[q.row[lo:hi] - i, q.col[lo:hi]] = q.val[lo:hi]
            head = w[:, self.pivots]
            for j in range(0, dim, step):
                prod = _mulmod(head, self.rows[:, j : j + step], p)
                out[i : i + step] &= ~(w[:, j : j + step] - prod).any(axis=1)
        return out

    def low_part(self, cut: int) -> np.ndarray:
        """The rows with no support before coordinate cut: a basis of the
        intersection of the space with the span of coordinates >= cut."""
        return self.rows[~self.rows[:, :cut].any(axis=1)]


def rank(m: FpMatrix) -> int:
    return len(_rref(m)[0])


def kernel_basis(m: FpMatrix) -> np.ndarray:
    """A basis of the right null space of m, one row per free column.

    Basis vectors are indexed by the free columns in ascending order; each
    has a 1 in its free coordinate. Every vector is re-verified by exact
    substitution before being returned.
    """
    p = m.p
    space = RowSpace(m)
    free = np.setdiff1d(np.arange(m.cols), space.pivots)
    basis = np.zeros((len(free), m.cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, space.pivots] = (-space.rows[:, free].T) % p
    if _entries_mulmod(m, basis.T).any():
        raise AssertionError("kernel vector failed substitution check")
    return basis


def solve(m: FpMatrix, rhs: Sequence[int]) -> Optional[np.ndarray]:
    """Some x with m.x = rhs, as an int64 array, or None.

    Free variables are set to zero, so the result is the lexicographically
    first pivot solution. A returned x is verified by substitution.
    """
    if len(rhs) != m.rows:
        raise DimensionMismatch(f"rhs length {len(rhs)} != {m.rows} rows")
    p = m.p
    b = np.asarray(rhs, dtype=np.int64) % p
    at = np.flatnonzero(b)
    space = RowSpace(
        FpMatrix.entries(
            np.concatenate([m.row, at]),
            np.concatenate([m.col, np.full(len(at), m.cols)]),
            np.concatenate([m.val, b[at]]),
            (m.rows, m.cols + 1),
            p,
        )
    )
    if m.cols in space.pivots:
        return None
    x = np.zeros(m.cols, dtype=np.int64)
    x[space.pivots] = space.rows[:, m.cols]
    if (_entries_mulmod(m, x[:, None])[:, 0] != b).any():
        raise AssertionError("solve result failed substitution check")
    return x
