"""The sparse echelon loop shared by every field in the package, and exact
primality, in pure Python like the rest of the package.

Elimination runs in one loop, `_echelon`, over a field given by two
operations on its values: bring a value to canonical form, and invert it.
It reads each row as a {column: value} dict, reduces it against the basis so
far (`_reduce`), and makes its smallest remaining column a new pivot, which
is then cleared from the earlier basis rows. The basis is fully reduced
after every row, so at the end it is the reduced row echelon form, returned
as those dicts by ascending pivot. That form is unique for a row space, so
every computed basis is deterministic and independent of the row order.
`fp_linalg` runs the loop mod p; `root_datum` runs it on `Fraction` values
for the lower central series and the witness closure check.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Set

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


def _reduce(w: dict, basis: Dict[int, dict], norm: Callable) -> dict:
    """w - sum of w[c] * basis[c] over the pivots c in w, in place, each
    entry brought to canonical form by norm.

    Each basis row holds 1 at its pivot and 0 at every other pivot, so no
    subtraction changes w at another pivot: the result is zero at every
    pivot, and it is empty iff w lies in the span of the basis.
    """
    for c in [c for c in w if c in basis]:
        f = w[c]
        for k, v in basis[c].items():
            x = norm(w.get(k, 0) - f * v)
            if x:
                w[k] = x
            else:
                del w[k]
    return w


def _echelon(rows: Iterable[dict], norm: Callable, invert: Callable) -> Dict[int, dict]:
    """The reduced echelon basis of the rows over the field whose values
    norm brings to canonical form and invert inverts: pivot column -> row,
    by ascending pivot, each row with its 1 at the pivot.

    The rows are dicts without zero values and are reduced in place. A
    column -> pivots index finds the basis rows that hold a new pivot's
    column without scanning every row.
    """
    basis: Dict[int, dict] = {}
    holders: Dict[int, Set[int]] = {}  # free column -> pivots holding it
    for row in rows:
        _reduce(row, basis, norm)
        if not row:
            continue
        piv = min(row)
        inv = invert(row[piv])
        new = {k: norm(v * inv) for k, v in row.items()}
        one = new.pop(piv)  # the field's own 1, e.g. Fraction(1) over Q
        for q in holders.pop(piv, ()):
            b = basis[q]
            f = b.pop(piv)
            for k, v in new.items():
                x = norm(b.get(k, 0) - f * v)
                if x:
                    if k not in b:
                        holders.setdefault(k, set()).add(q)
                    b[k] = x
                else:
                    del b[k]
                    holders[k].discard(q)
        for k in new:
            holders.setdefault(k, set()).add(piv)
        new[piv] = one
        basis[piv] = new
    return dict(sorted(basis.items()))
