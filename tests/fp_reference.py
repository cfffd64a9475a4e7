"""Dense reference elimination over F_p, kept as a test oracle for the
sparse `coherence_lab.fp_linalg._rref`.

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
