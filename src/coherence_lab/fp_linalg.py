"""Exact linear algebra over the prime field F_p.

Matrices are numpy int64 arrays. All arithmetic is exact. Matrix products
go through `_mulmod`, which runs them as float64 (BLAS) products whenever
every exact sum of products stays below 2^53, so float64 only ever carries
exact integers, and on Python ints (object arrays) beyond that.

Elimination is sparse: `_rref` only reads its input, takes each row's
nonzero entries reduced mod p (skipping those that vanish) into a dict and
works on Python ints, so it is exact for every p. Each row is reduced
against the basis so far, and its smallest remaining column becomes a new
pivot, which is then cleared from the earlier basis rows. The basis is
fully reduced after every row, so at the end it is the reduced row echelon
form, which `_rref` returns as a new array. That form is unique for a row
space, so every computed basis and every solution is deterministic and
independent of the row order. `_rref` is the only elimination loop;
`RowSpace` wraps it and answers every span question (membership, equality,
filtration pieces), and rank, kernel and solve are built on it. `FpMatrix`
and `rref` remain for the benchmark's tracer, which wraps `rref` and reads
`rows` and `cols` of the `rank` and `kernel_basis` argument.
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
    """A rows x cols matrix over F_p, held as an int64 array reduced into
    [0, p)."""

    def __init__(self, a, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self._a = np.asarray(a, dtype=np.int64) % p
        self.rows, self.cols = self._a.shape
        self.p = p


def _rref(a: np.ndarray, p: int) -> Tuple[List[int], np.ndarray]:
    """Pivot columns and reduced echelon basis (rank x cols) of the rows of
    `a` over F_p. `a` is only read: its entries may lie outside [0, p), and
    the nonzeros that vanish mod p are skipped.

    The sparse elimination of the module docstring: rows are {column: value}
    dicts, and a column -> pivots index finds the basis rows that hold a new
    pivot's column without scanning every row.
    """
    ri, ci = np.nonzero(a)
    vals = a[ri, ci] % p
    hit = vals != 0
    ri, cols, vals = ri[hit], ci[hit].tolist(), vals[hit].tolist()
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
    out = np.zeros((len(pivots), a.shape[1]), dtype=np.int64)
    out[at_r, at_c] = [v for row in rows for v in row.values()]
    return pivots, out


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


def rref(m: FpMatrix) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form of m, an array of m's shape with zero rows
    below, and its pivot column indices."""
    pivots, rows = _rref(m._a, m.p)
    return np.pad(rows, [(0, m.rows - len(pivots)), (0, 0)]), pivots


class RowSpace:
    """The span of some vectors in F_p^dim, held as its reduced echelon basis.

    The vectors are only read, and their entries may lie outside [0, p).
    `rows` are sorted by pivot column, so two spanning sets of one space
    give equal `rows`.
    """

    def __init__(self, vectors, p: int, dim: int):
        self.p = p
        a = np.asarray(vectors, dtype=np.int64).reshape(len(vectors), dim)
        self.pivots, self.rows = _rref(a, p)

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


def kernel_basis(m: FpMatrix) -> np.ndarray:
    """A basis of the right null space of m, one row per free column.

    Basis vectors are indexed by the free columns in ascending order; each
    has a 1 in its free coordinate. Every vector is re-verified by exact
    substitution before being returned.
    """
    p = m.p
    space = RowSpace(m._a, p, m.cols)
    free = np.setdiff1d(np.arange(m.cols), space.pivots)
    basis = np.zeros((len(free), m.cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, space.pivots] = (-space.rows[:, free].T) % p
    if _mulmod(m._a, basis.T, p).any():
        raise AssertionError("kernel vector failed substitution check")
    return basis


def solve(m: FpMatrix, rhs: Sequence[int]) -> Optional[np.ndarray]:
    """Some x with m.x = rhs, as an int64 array, or None.

    Free variables are set to zero, so the result is the lexicographically
    first pivot solution. A returned x is verified by substitution.
    """
    if len(rhs) != m.rows:
        raise DimensionMismatch(f"rhs length {len(rhs)} != {m.rows} rows")
    b = np.asarray(rhs, dtype=np.int64)
    space = RowSpace(np.column_stack([m._a, b]), m.p, m.cols + 1)
    if m.cols in space.pivots:
        return None
    x = np.zeros(m.cols, dtype=np.int64)
    x[space.pivots] = space.rows[:, m.cols]
    if np.any((_mulmod(m._a, x, m.p) - b) % m.p):
        raise AssertionError("solve result failed substitution check")
    return x
