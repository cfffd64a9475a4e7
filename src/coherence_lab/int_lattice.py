"""Finitely generated subgroups of Z^N with exact integer arithmetic.

The central objects are the row Hermite normal form (a canonical basis that
makes membership a back-substitution), the sign cone
(Z_{>=0})^N u (Z_{<=0})^N, and a constructive merge of two nonnegative
vectors into a single generator of their joint span. The merge either
succeeds, or produces an explicit integer combination of its inputs lying
outside the sign cone; that dichotomy is what the coherence criterion runs
on.

All vectors are tuples of arbitrary-precision Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

IntVector = Tuple[int, ...]


class LengthMismatch(ValueError):
    pass


def _as_vec(v: Sequence[int]) -> IntVector:
    return tuple(int(x) for x in v)


def _check_len(v: Sequence[int], n: int) -> None:
    if len(v) != n:
        raise LengthMismatch(f"vector length {len(v)} != ambient dimension {n}")


def vec_add(x: IntVector, y: IntVector) -> IntVector:
    return tuple(a + b for a, b in zip(x, y))


def vec_sub(x: IntVector, y: IntVector) -> IntVector:
    return tuple(a - b for a, b in zip(x, y))


def vec_scale(c: int, x: IntVector) -> IntVector:
    return tuple(c * a for a in x)


def is_zero(v: Sequence[int]) -> bool:
    return all(a == 0 for a in v)


def in_sign_cone(v: Sequence[int]) -> bool:
    """True iff all coordinates are >= 0 or all are <= 0."""
    return all(a >= 0 for a in v) or all(a <= 0 for a in v)


def hnf(generators: Sequence[Sequence[int]]) -> List[IntVector]:
    """Canonical row Hermite normal form basis of the span of the generators.

    Pivot entries are positive and entries above each pivot are reduced into
    [0, pivot). Zero rows are dropped, so two generating sets with equal span
    produce identical output.
    """
    gens = [list(_as_vec(g)) for g in generators]
    if not gens:
        return []
    n = len(gens[0])
    for g in gens:
        _check_len(g, n)
    rows = [g for g in gens if not is_zero(g)]
    r = 0
    for c in range(n):
        # Clear column c below row r by repeated Euclidean reduction.
        while True:
            candidates = [i for i in range(r, len(rows)) if rows[i][c] != 0]
            if not candidates:
                break
            i = min(candidates, key=lambda k: (abs(rows[k][c]), k))
            rows[r], rows[i] = rows[i], rows[r]
            done = True
            for k in range(r + 1, len(rows)):
                if rows[k][c] != 0:
                    q = rows[k][c] // rows[r][c]
                    rows[k] = [a - q * b for a, b in zip(rows[k], rows[r])]
                    if rows[k][c] != 0:
                        done = False
            if done:
                break
        if r < len(rows) and rows[r][c] != 0:
            if rows[r][c] < 0:
                rows[r] = [-a for a in rows[r]]
            for k in range(r):
                q = rows[k][c] // rows[r][c]
                if q:
                    rows[k] = [a - q * b for a, b in zip(rows[k], rows[r])]
            r += 1
        rows = [row for row in rows if not is_zero(row)]
    return [tuple(row) for row in rows if not is_zero(row)]


def _reduce_against(basis: Sequence[IntVector], v: Sequence[int]) -> Optional[IntVector]:
    """Back-substitute v against an HNF basis; None if not in the span."""
    w = list(v)
    for row in basis:
        c = next(i for i, a in enumerate(row) if a != 0)
        if w[c] % row[c] != 0:
            return None
        q = w[c] // row[c]
        w = [a - q * b for a, b in zip(w, row)]
    return tuple(w) if is_zero(w) else None


class IntLattice:
    """Span of a finite set of integer vectors, with a cached HNF basis."""

    def __init__(self, ambient_dim: int, generators: Sequence[Sequence[int]]):
        self.ambient_dim = ambient_dim
        self.generators: Tuple[IntVector, ...] = tuple(_as_vec(g) for g in generators)
        for g in self.generators:
            _check_len(g, ambient_dim)
        self.hnf_basis: Tuple[IntVector, ...] = tuple(hnf(self.generators))
        for g in self.generators:
            if _reduce_against(self.hnf_basis, g) is None:
                raise AssertionError("HNF basis does not span its generators")

    @property
    def rank(self) -> int:
        return len(self.hnf_basis)

    def contains(self, v: Sequence[int]) -> bool:
        _check_len(v, self.ambient_dim)
        return _reduce_against(self.hnf_basis, v) is not None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntLattice)
            and other.ambient_dim == self.ambient_dim
            and other.hnf_basis == self.hnf_basis
        )

    def __repr__(self) -> str:
        return f"IntLattice(dim={self.ambient_dim}, hnf={list(self.hnf_basis)})"


@dataclass(frozen=True)
class ConeViolation:
    """An integer combination of the merge inputs outside the sign cone.

    witness = coeff_x * x + coeff_y * y, has both a strictly positive and a
    strictly negative coordinate.
    """

    witness: IntVector
    coeff_x: int
    coeff_y: int


def _merge_tracked(x: IntVector, y: IntVector):
    """merge_pair plus the combination coefficients of the result.

    Returns (vector, cx, cy, ok) with vector = cx*x + cy*y; ok=True means
    vector generates Zx + Zy, ok=False means vector violates the sign cone.
    """
    for v in (x, y):
        if any(a < 0 for a in v):
            raise ValueError("merge_pair inputs must be sign-normalized (>= 0)")
    if len(x) != len(y):
        raise LengthMismatch(f"{len(x)} != {len(y)}")
    if is_zero(x):
        return y, 0, 1, True
    if is_zero(y):
        return x, 1, 0, True
    x_gt = any(a > b for a, b in zip(x, y))
    y_gt = any(a < b for a, b in zip(x, y))
    if x_gt and y_gt:
        return vec_sub(x, y), 1, -1, False
    swapped = False
    if y_gt:  # y dominates coordinatewise
        x, y = y, x
        swapped = True

    def coeffs(cx: int, cy: int):
        return (cy, cx) if swapped else (cx, cy)

    # x >= y >= 0 coordinatewise, y != 0.
    zero_gap = [i for i, (a, b) in enumerate(zip(x, y)) if b == 0 and a > 0]
    if zero_gap:
        j = next(i for i, b in enumerate(y) if b > 0)
        m = x[j] // y[j] + 1
        w = vec_sub(x, vec_scale(m, y))
        cx, cy = coeffs(1, -m)
        return w, cx, cy, False
    # Common support with x_i >= y_i > 0 there; compare the coordinate ratios.
    support = [i for i, b in enumerate(y) if b > 0]
    q = min(Fraction(x[i], y[i]) for i in support)
    a, b = q.numerator, q.denominator
    z = vec_sub(vec_scale(b, x), vec_scale(a, y))
    if not is_zero(z):
        # z >= 0, zero at the minimizing coordinate where y is positive:
        # a large multiple of z pushes y out of the cone.
        j = next(i for i, c in enumerate(z) if c > 0)
        m = y[j] // z[j] + 1
        w = vec_sub(y, vec_scale(m, z))
        cx, cy = coeffs(-m * b, 1 + m * a)
        return w, cx, cy, False
    # b*x == a*y with gcd(a, b) = 1, so x and y sit on one ray; Bezout
    # coefficients give the primitive generator of the combined span.
    g, u, v = _egcd(a, b)
    assert g == 1
    gen = vec_add(vec_scale(u, x), vec_scale(v, y))
    cx, cy = coeffs(u, v)
    return gen, cx, cy, True


def _egcd(a: int, b: int):
    """Extended gcd: returns (g, u, v) with u*a + v*b = g."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    return old_r, old_u, old_v


def merge_pair(x: Sequence[int], y: Sequence[int]):
    """Merge two vectors of (Z_{>=0})^N into one generator of Zx + Zy.

    On success returns g with Zg = Zx + Zy and g in (Z_{>=0})^N. If no such
    generator exists, returns a ConeViolation carrying an explicit mixed-sign
    combination of x and y. The failure witnesses follow the constructive
    dichotomy directly: x - y when the coordinatewise comparison is mixed,
    x - m*y when y vanishes where x does not, and y - m*(b*x - a*y) when the
    coordinate ratios disagree.
    """
    xv, yv = _as_vec(x), _as_vec(y)
    vec, cx, cy, ok = _merge_tracked(xv, yv)
    if ok:
        return vec
    return ConeViolation(witness=vec, coeff_x=cx, coeff_y=cy)


@dataclass(frozen=True)
class CyclicConeResult:
    """Outcome of the cyclicity test: exactly one field is set."""

    generator: Optional[IntVector] = None
    mixed_witness: Optional[IntVector] = None


def cyclic_cone_generator_tracked(vectors: Sequence[Sequence[int]], ambient_dim: int):
    """Fold vectors through merge_pair, tracking combination coefficients.

    Returns (result, coeffs) where coeffs expresses the generator or the
    witness as an integer combination of the input vectors.
    """
    vecs = [_as_vec(v) for v in vectors]
    for v in vecs:
        _check_len(v, ambient_dim)
    n = len(vecs)
    acc: IntVector = tuple(0 for _ in range(ambient_dim))
    acc_coeffs = [0] * n
    for idx, v in enumerate(vecs):
        sign = 1
        if not in_sign_cone(v):
            coeffs = [0] * n
            coeffs[idx] = 1
            return CyclicConeResult(mixed_witness=v), coeffs
        if any(a < 0 for a in v):
            v = vec_scale(-1, v)
            sign = -1
        merged, cx, cy, ok = _merge_tracked(acc, v)
        coeffs = [cx * c for c in acc_coeffs]
        coeffs[idx] += cy * sign
        if not ok:
            return CyclicConeResult(mixed_witness=merged), coeffs
        acc, acc_coeffs = merged, coeffs
    return CyclicConeResult(generator=acc), acc_coeffs


def cyclic_cone_generator(lattice: IntLattice) -> CyclicConeResult:
    """Decide whether the lattice is cyclic with a nonnegative generator.

    Either returns that generator (the zero vector for the zero lattice), or
    an explicit lattice element outside the sign cone. Exactly one of the two
    happens.
    """
    result, _ = cyclic_cone_generator_tracked(lattice.generators, lattice.ambient_dim)
    if result.generator is not None:
        gen = result.generator
        if not lattice.contains(gen) and not is_zero(gen):
            raise AssertionError("cyclic generator not in lattice")
        for g in lattice.generators:
            if not divides_vec(gen, g):
                raise AssertionError("generator does not divide a lattice generator")
    else:
        w = result.mixed_witness
        assert w is not None
        if not lattice.contains(w):
            raise AssertionError("mixed witness not in lattice")
        if in_sign_cone(w):
            raise AssertionError("mixed witness lies in the sign cone")
    return result


def divides_vec(g: IntVector, v: IntVector) -> bool:
    """True iff v is an integer multiple of g."""
    if is_zero(g):
        return is_zero(v)
    ratio: Optional[Fraction] = None
    for a, b in zip(g, v):
        if a == 0:
            if b != 0:
                return False
            continue
        r = Fraction(b, a)
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return ratio is None or ratio.denominator == 1
