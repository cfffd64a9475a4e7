"""Dense reference elimination over F_p, kept as a test oracle for the
sparse `coherence_lab.fp_linalg._rref`, and conversions between dense
arrays and the {column: value} rows an `FpMatrix` holds.

`rref` is the column-by-column numpy loop the program used before its
elimination became sparse: for each column it takes the topmost usable row
as the pivot, scales it to 1 and clears the column from every other row
with one outer-product update. It reduces an int64 array with entries in
[0, p) in place and returns the pivot columns. Its products run in int64,
so it is exact only while (p - 1)^2 + p stays below 2^63.
"""

from __future__ import annotations

from typing import List

import numpy as np

from coherence_lab.fp_linalg import FpMatrix


def rref(a: np.ndarray, p: int) -> List[int]:
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


def matrix(a, p: int) -> FpMatrix:
    """The FpMatrix of a 2-D array or nested sequence with entries in any
    range, taken mod p. An array with no rows gets its width from its
    shape."""
    rows = [{c: v for c, x in enumerate(r) if (v := int(x) % p)} for r in a]
    shape = getattr(a, "shape", None) or (len(rows), len(a[0]) if rows else 0)
    return FpMatrix(rows, shape[1], p)


def dense(m) -> np.ndarray:
    """The rows x cols int64 array holding the rows of the FpMatrix m."""
    return dense_rows(m.data, m.cols)


def dense_rows(rows, cols: int) -> np.ndarray:
    """The len(rows) x cols int64 array of {column: value} rows, such as the
    values of a reduced basis or a list of kernel vectors."""
    out = np.zeros((len(rows), cols), dtype=np.int64)
    for i, row in enumerate(rows):
        for c, v in row.items():
            out[i, c] = v
    return out
