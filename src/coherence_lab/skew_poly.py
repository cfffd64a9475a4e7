"""Skew polynomials in commuting Frobenius-twisted variables.

A context fixes a coefficient series ring, a list of twist variables (D, E
for the two-variable ring, F for the one-variable one), the per-variable
exponent-multiplier logs of their endomorphisms, and a hard window on the
twist exponents. Multiplication follows the twisted rule: moving X^a past a
coefficient applies the a-fold endomorphism, so

    (c X^a) (c' X^b) = c * sigma^a(c') X^(a+b).

The module also provides the flattening of bounded slabs of the ring onto an
F_p monomial basis, bounded ideal membership with verified certificates, and
bounded syzygy kernels. Flattened matrices are block diagonal with respect
to total twist degree whenever the generators are twist-homogeneous, and the
kernel is assembled blockwise in that case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from . import fp_linalg
from .skew_series import ContextMismatch, FrobeniusEndo, SeriesRing, TruncSeries

XExp = Tuple[int, ...]


class WindowExceeded(ValueError):
    pass


class SkewContext:
    """Ring context for coefficients in `base` twisted by `twist_vars`."""

    def __init__(
        self,
        base: SeriesRing,
        twist_vars: Tuple[str, ...],
        endo_logs: Mapping[str, Mapping[str, int]],
        window: int,
    ):
        self.base = base
        self.twist_vars = tuple(twist_vars)
        self.endo_logs = {
            x: {v: int(endo_logs.get(x, {}).get(v, 0)) for v in base.variables}
            for x in self.twist_vars
        }
        if window < 0:
            raise ValueError("window must be >= 0")
        self.window = window

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SkewContext)
            and other.base == self.base
            and other.twist_vars == self.twist_vars
            and other.endo_logs == self.endo_logs
            and other.window == self.window
        )

    def __hash__(self) -> int:
        return hash((self.base, self.twist_vars, self.window))

    def twist_endo(self, xexp: XExp) -> FrobeniusEndo:
        """The endomorphism applied when X^xexp moves past a coefficient."""
        logs = {v: 0 for v in self.base.variables}
        for x, a in zip(self.twist_vars, xexp):
            for v, m in self.endo_logs[x].items():
                logs[v] += m * a
        return FrobeniusEndo(self.base, logs)

    def zero(self) -> "SkewPoly":
        return SkewPoly(self, {})

    def one(self) -> "SkewPoly":
        return SkewPoly.from_series(self, self.base.one())

    def gen(self, name: str, power: int = 1) -> "SkewPoly":
        i = self.twist_vars.index(name)
        if power < 0:
            raise ValueError("negative twist exponents are out of scope")
        if power > self.window:
            raise WindowExceeded(f"{name}^{power} exceeds window {self.window}")
        xexp = tuple(power if k == i else 0 for k in range(len(self.twist_vars)))
        return SkewPoly(self, {xexp: self.base.one()})


class SkewPoly:
    """Finite sum of coefficient * X^xexp with nonzero coefficients."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: SkewContext, coeffs: Dict[XExp, TruncSeries]):
        self.ctx = ctx
        self.coeffs = {x: c for x, c in coeffs.items() if not c.is_zero()}

    @classmethod
    def from_series(cls, ctx: SkewContext, c: TruncSeries) -> "SkewPoly":
        zero_exp = (0,) * len(ctx.twist_vars)
        return cls(ctx, {zero_exp: c})

    def _check(self, other: "SkewPoly") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatch("mixed skew contexts")

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "SkewPoly") -> "SkewPoly":
        self._check(other)
        out = dict(self.coeffs)
        for x, c in other.coeffs.items():
            s = out.get(x)
            v = c if s is None else s + c
            if v.is_zero():
                out.pop(x, None)
            else:
                out[x] = v
        return SkewPoly(self.ctx, out)

    def __neg__(self) -> "SkewPoly":
        return SkewPoly(self.ctx, {x: -c for x, c in self.coeffs.items()})

    def __sub__(self, other: "SkewPoly") -> "SkewPoly":
        return self + (-other)

    def __mul__(self, other: "SkewPoly") -> "SkewPoly":
        self._check(other)
        ctx = self.ctx
        out: Dict[XExp, TruncSeries] = {}
        for xa, ca in self.coeffs.items():
            endo = ctx.twist_endo(xa)
            for xb, cb in other.coeffs.items():
                x = tuple(a + b for a, b in zip(xa, xb))
                if any(e > ctx.window for e in x):
                    raise WindowExceeded(
                        f"product exponent {x} exceeds window {ctx.window}"
                    )
                c = ca * endo.apply(cb)
                if c.is_zero():
                    continue
                s = out.get(x)
                v = c if s is None else s + c
                if v.is_zero():
                    out.pop(x, None)
                else:
                    out[x] = v
        return SkewPoly(ctx, out)

    def scale_series(self, c: TruncSeries) -> "SkewPoly":
        """Left multiplication by a plain coefficient."""
        return SkewPoly(self.ctx, {x: c * v for x, v in self.coeffs.items()})

    def xdegree(self) -> int:
        """Max total twist degree (-1 for zero)."""
        return max((sum(x) for x in self.coeffs), default=-1)

    def max_xexp(self) -> XExp:
        """Componentwise max twist exponent over all terms."""
        k = len(self.ctx.twist_vars)
        out = [0] * k
        for x in self.coeffs:
            for i in range(k):
                out[i] = max(out[i], x[i])
        return tuple(out)

    def is_x_homogeneous(self) -> bool:
        degs = {sum(x) for x in self.coeffs}
        return len(degs) <= 1

    def max_series_degree_scaled(self) -> int:
        return max((c.degree_scaled() for c in self.coeffs.values()), default=-1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SkewPoly)
            and other.ctx == self.ctx
            and other.coeffs == self.coeffs
        )

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        names = self.ctx.twist_vars
        parts = []
        for x in sorted(self.coeffs, key=lambda e: (sum(e), e)):
            xs = "".join(
                f"{n}^{e}" if e > 1 else (n if e == 1 else "")
                for n, e in zip(names, x)
            )
            c = repr(self.coeffs[x])
            parts.append(f"({c}){xs}" if xs else f"({c})")
        return " + ".join(parts)


class FlatSpace:
    """F_p coordinates on the slab {twist exponents <= xbounds} of the ring.

    The basis is ordered by graded-lex on the twist exponent, then by graded
    -lex on the (scaled) series monomial, so all downstream linear algebra is
    deterministic.
    """

    def __init__(self, ctx: SkewContext, xbounds: XExp):
        self.ctx = ctx
        self.xbounds = tuple(xbounds)
        ring = ctx.base
        monos = _series_monomials(ring)
        xexps = sorted(
            itertools.product(*[range(b + 1) for b in self.xbounds]),
            key=lambda x: (sum(x), x),
        )
        self.basis: List[Tuple[XExp, Tuple[int, ...]]] = [
            (x, m) for x in xexps for m in monos
        ]
        self.index = {bm: i for i, bm in enumerate(self.basis)}
        self.dim = len(self.basis)

    def to_vec(self, poly: SkewPoly) -> List[int]:
        v = [0] * self.dim
        for x, c in poly.coeffs.items():
            for mono, coeff in c.terms.items():
                key = (x, mono)
                if key not in self.index:
                    raise WindowExceeded(f"term {key} outside flattened slab")
                v[self.index[key]] = coeff
        return v

    def from_vec(self, v: Sequence[int]) -> SkewPoly:
        p = self.ctx.base.p
        by_x: Dict[XExp, Dict[Tuple[int, ...], int]] = {}
        for i, c in enumerate(v):
            c %= p
            if c:
                x, mono = self.basis[i]
                by_x.setdefault(x, {})[mono] = c
        return SkewPoly(
            self.ctx,
            {x: TruncSeries(self.ctx.base, terms) for x, terms in by_x.items()},
        )


def _series_monomials(ring: SeriesRing) -> List[Tuple[int, ...]]:
    """All representable monomials, graded-lex order on scaled exponents."""
    out: List[Tuple[int, ...]] = []

    def rec(prefix, remaining, budget):
        if remaining == 1:
            for e in range(budget):
                out.append(prefix + (e,))
            return
        for e in range(budget):
            rec(prefix + (e,), remaining - 1, budget - e)

    rec(tuple(), len(ring.variables), ring.max_scaled)
    return sorted(out, key=lambda m: (sum(m), m))


def _fits(poly: SkewPoly, xbounds: XExp) -> bool:
    return all(a <= b for a, b in zip(poly.max_xexp(), xbounds))


def _image_bounds(generators: Sequence[SkewPoly], xbounds: XExp) -> XExp:
    """Slab large enough for any bounded multiple of the generators.

    The context window must accommodate it; callers size the window as
    bound + max generator degree.
    """
    return tuple(
        b + max(g.max_xexp()[i] for g in generators) for i, b in enumerate(xbounds)
    )


@dataclass(frozen=True)
class MembershipCertificate:
    """coefficients[i] * generators[i] summed reproduces the element."""

    coefficients: Tuple[SkewPoly, ...]


NOT_IN_IDEAL_AT_BOUND = "NotInIdealAtBound"


def ideal_membership_bounded(
    elem: SkewPoly,
    generators: Sequence[SkewPoly],
    xbounds: XExp,
):
    """Left-ideal membership at bounded twist degree.

    Searches for coefficients supported on the slab {exponents <= xbounds}
    with sum(lambda_i * g_i) = elem, by exact linear algebra over the
    flattened monomial basis. On success the certificate is re-verified by
    multiplication; on failure returns NOT_IN_IDEAL_AT_BOUND (a statement
    relative to the given bounds only).
    """
    if not generators:
        raise ValueError("need at least one generator")
    ctx = elem.ctx
    domain = FlatSpace(ctx, xbounds)
    image_bounds = _image_bounds(generators, xbounds)
    image = FlatSpace(ctx, image_bounds)
    columns: List[List[int]] = []
    col_key: List[Tuple[int, int]] = []  # (generator index, domain basis index)
    for gi, g in enumerate(generators):
        for bi, (x, mono) in enumerate(domain.basis):
            mu = SkewPoly(ctx, {x: TruncSeries(ctx.base, {mono: 1})})
            prod = mu * g
            if not _fits(prod, image_bounds):
                continue
            columns.append(image.to_vec(prod))
            col_key.append((gi, bi))
    if not _fits(elem, image_bounds):
        raise WindowExceeded("element outside the bounded image slab")
    rhs = image.to_vec(elem)
    if not columns:
        return MembershipCertificate(tuple(ctx.zero() for _ in generators)) \
            if all(c == 0 for c in rhs) else NOT_IN_IDEAL_AT_BOUND
    mat = fp_linalg.FpMatrix.from_numpy(
        np.array(columns, dtype=np.int64).T, ctx.base.p
    )
    sol = fp_linalg.solve(mat, rhs)
    if sol is None:
        return NOT_IN_IDEAL_AT_BOUND
    lams = [ctx.zero() for _ in generators]
    for val, (gi, bi) in zip(sol, col_key):
        if val:
            x, mono = domain.basis[bi]
            lams[gi] = lams[gi] + SkewPoly(ctx, {x: TruncSeries(ctx.base, {mono: val})})
    acc = ctx.zero()
    for lam, g in zip(lams, generators):
        acc = acc + lam * g
    if acc != elem:
        raise AssertionError("membership certificate failed re-multiplication")
    return MembershipCertificate(tuple(lams))


def syzygy_bounded(
    generators: Sequence[SkewPoly],
    xbounds: XExp,
) -> List[Tuple[SkewPoly, ...]]:
    """Basis of the bounded relation module of the generators.

    Returns tuples (lambda_1, ..., lambda_m), each supported on the slab
    {exponents <= xbounds}, with sum(lambda_i g_i) = 0 in the truncated
    ring; every basis vector is re-verified by substitution. When all
    generators are homogeneous in total twist degree the flattened matrix is
    block diagonal by degree and the kernel is computed blockwise.
    """
    if not generators:
        return []
    ctx = generators[0].ctx
    domain = FlatSpace(ctx, xbounds)
    image_bounds = _image_bounds(generators, xbounds)
    image = FlatSpace(ctx, image_bounds)

    homogeneous = all(g.is_x_homogeneous() and not g.is_zero() for g in generators)
    raw_vectors: List[List[int]] = []
    if homogeneous:
        gdeg = [g.xdegree() for g in generators]
        degrees = sorted(
            {sum(x) + gdeg[gi] for gi in range(len(generators)) for x, _ in domain.basis}
        )
        for deg in degrees:
            cols: List[List[int]] = []
            keys: List[Tuple[int, int]] = []
            for gi, g in enumerate(generators):
                for bi, (x, mono) in enumerate(domain.basis):
                    if sum(x) + gdeg[gi] != deg:
                        continue
                    mu = SkewPoly(ctx, {x: TruncSeries(ctx.base, {mono: 1})})
                    prod = mu * g
                    vec = image.to_vec(prod)
                    cols.append(vec)
                    keys.append((gi, bi))
            if not cols:
                continue
            sub = np.array(cols, dtype=np.int64).T
            sub = sub[sub.any(axis=1)]
            mat = fp_linalg.FpMatrix.from_numpy(sub, ctx.base.p)
            for kvec in fp_linalg.kernel_basis(mat):
                full = [0] * (len(generators) * domain.dim)
                for val, (gi, bi) in zip(kvec, keys):
                    full[gi * domain.dim + bi] = val
                raw_vectors.append(full)
    else:
        cols = []
        for g in generators:
            for (x, mono) in domain.basis:
                mu = SkewPoly(ctx, {x: TruncSeries(ctx.base, {mono: 1})})
                cols.append(image.to_vec(mu * g))
        mat = fp_linalg.FpMatrix.from_numpy(np.array(cols, dtype=np.int64).T, ctx.base.p)
        raw_vectors = fp_linalg.kernel_basis(mat)

    out: List[Tuple[SkewPoly, ...]] = []
    for full in raw_vectors:
        lams = tuple(
            domain.from_vec(full[gi * domain.dim : (gi + 1) * domain.dim])
            for gi in range(len(generators))
        )
        acc = ctx.zero()
        for lam, g in zip(lams, generators):
            acc = acc + lam * g
        if not acc.is_zero():
            raise AssertionError("syzygy basis vector failed substitution")
        out.append(lams)
    return out
