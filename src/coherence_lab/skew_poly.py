"""Skew polynomials in commuting Frobenius-twisted variables.

A context fixes a coefficient series ring, a list of twist variables (D, E
for the two-variable ring, F for the one-variable one), the per-variable
exponent-multiplier logs of their endomorphisms, and a hard window on the
twist exponents. Multiplication follows the twisted rule: moving X^a past a
coefficient applies the a-fold endomorphism, so

    (c X^a) (c' X^b) = c * sigma^a(c') X^(a+b).

The module also provides bounded ideal membership with verified
certificates, bounded syzygy kernels among the multiples whose products lose
no term to truncation, and membership in the span of the bounded multiples
of generator tuples (`span_contains`, the span(S) check of `skew_checks`).
Their generators are twist-homogeneous, so each flattened matrix is block
diagonal with respect to total twist degree and is assembled and solved one
degree block at a time. `_Coords` is the one coordinate map of n-tuples,
here and in the one-variable spans of `skew_checks`: a term's code has the
twist exponents as digits counted down from the window, then the component,
then the series exponents, so in one variable each filtration piece "twist
degree <= k" is a tail of the code order, and a code decodes back into its
term. A multiple X^xexp * mono * g_i never becomes a ring element: left
multiplication by a monomial is an index map on the terms of g_i
(`_Coords.shifted`) that moves each by the context's `twist_endo`, keeps
those the truncation keeps, and lazily emits each product as the
{code: value} row of its coordinates. Exponent scaling is injective, so a
product lost no term exactly when its row has as many entries as g_i has
terms; that is how a syzygy block and a one-variable span pick their
loss-free products. `_assemble` transposes such columns into the rows of an
`fp_linalg.FpMatrix`, one row per code, so no block is held as a dense
array. Only the re-verifications multiply ring elements, all through
`_multiply_accumulate`: `SkewPoly.__mul__` (one pair) and the re-checks of
kernel vectors and membership certificates (`_combination`). `FlatSpace`,
the dense whole-slab indexer, serves as the reference in the tests.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from . import fp_linalg
from .skew_series import (
    ContextMismatch,
    FrobeniusEndo,
    SeriesRing,
    TruncSeries,
)

XExp = Tuple[int, ...]
Mono = Tuple[int, ...]


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
        self._endos: Dict[XExp, FrobeniusEndo] = {}

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
        """The endomorphism applied when X^xexp moves past a coefficient,
        built once per exponent."""
        endo = self._endos.get(xexp)
        if endo is None:
            logs = {v: 0 for v in self.base.variables}
            for x, a in zip(self.twist_vars, xexp):
                for v, m in self.endo_logs[x].items():
                    logs[v] += m * a
            endo = self._endos[xexp] = FrobeniusEndo(self.base, logs)
        return endo

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
        if self.ctx is not other.ctx and self.ctx != other.ctx:
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
        return _multiply_accumulate(self.ctx, ((self, other),))

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


# A domain coordinate of a bounded combination sum(lambda_i g_i): the
# generator index i and the monomial X^xexp * mono of lambda_i.
_Key = Tuple[int, XExp, Mono]


def _require_homogeneous(generators: Sequence[SkewPoly]) -> None:
    if not generators or any(
        g.is_zero() or not g.is_x_homogeneous() for g in generators
    ):
        raise ValueError("need nonzero twist-homogeneous generators")


def _block_keys(
    degrees: Sequence[int],
    xbounds: XExp,
    deg: int,
    monos: Sequence[Mono],
) -> List[_Key]:
    """The domain coordinates whose image has total twist degree deg, for
    generators of total twist degrees degrees, by generator and then in
    FlatSpace basis order."""
    keys: List[_Key] = []
    for gi, d in enumerate(degrees):
        for x in itertools.product(*[range(b + 1) for b in xbounds]):
            if sum(x) == deg - d:
                keys += [(gi, x, m) for m in monos]
    return keys


# A term of a tuple of ring elements: (component, twist exponent, series
# monomial, coefficient).
_Term = Tuple[int, XExp, Mono, int]
# X^x * terms for one x (`_Coords._image`).
_Image = Tuple[List[int], List[Tuple[int, int]], List[int]]


class _Coords:
    """F_p coordinates of the terms of n-tuples of ring elements, as
    mixed-radix codes: a digit window - x_i per twist exponent, then the
    component, then each scaled series exponent (module docstring).
    """

    def __init__(self, ctx: SkewContext, ncomp: int):
        ring = ctx.base
        self.ctx, self.ncomp = ctx, ncomp
        m, w = ring.max_scaled, ctx.window + 1
        nx, nv = len(ctx.twist_vars), len(ring.variables)
        self.wm = [m ** (nv - 1 - v) for v in range(nv)]
        self.wcomp = m**nv
        self.wx = [ncomp * m**nv * w ** (nx - 1 - i) for i in range(nx)]
        self.top = ctx.window * sum(self.wx)  # the least code of exponent 0
        self.dim = ncomp * m**nv * w**nx
        self.radices = [m] * nv + [ncomp] + [w] * nx  # least significant first

    def first(self, x: XExp) -> int:
        """The least code of twist exponent x."""
        return self.top - sum(map(operator.mul, x, self.wx))

    def _code(self, comp: int, x: XExp, mono: Mono) -> int:
        return self.first(x) + comp * self.wcomp + sum(map(operator.mul, mono, self.wm))

    def terms(self, polys: Sequence[SkewPoly]) -> List[_Term]:
        """The terms of the tuple polys, in the order a product visits
        them: by component, twist exponent, monomial. A tuple of another
        length than the component count is refused: its codes would alias."""
        if len(polys) != self.ncomp:
            raise ValueError(
                f"tuple of length {len(polys)} in coordinates of {self.ncomp}"
            )
        found = [
            (comp, x, mono, c)
            for comp, poly in enumerate(polys)
            for x, series in poly.coeffs.items()
            for mono, c in series.terms.items()
        ]
        if any(e > self.ctx.window for _, x, _, _ in found for e in x):
            raise WindowExceeded(f"term outside window {self.ctx.window}")
        return found

    def column(self, polys: Sequence[SkewPoly]) -> fp_linalg.Row:
        """The coordinate row {code: value} of the tuple polys."""
        return {self._code(comp, x, m): c for comp, x, m, c in self.terms(polys)}

    def decode(self, row: fp_linalg.Row) -> List[_Term]:
        """The terms of the tuple whose coordinate row is row, in the
        row's order: `column` undone."""
        nv, window = len(self.wm), self.ctx.window
        out = []
        for code, c in row.items():
            digits = []
            for radix in self.radices:
                code, d = divmod(code, radix)
                digits.append(d)
            x = tuple(window - d for d in reversed(digits[nv + 1 :]))
            out.append((digits[nv], x, tuple(reversed(digits[:nv])), c))
        return out

    def matrix(self, rows: List[fp_linalg.Row]) -> fp_linalg.FpMatrix:
        """The F_p matrix of coordinate rows, which it holds, not copies."""
        return fp_linalg.FpMatrix(rows, self.dim, self.ctx.base.p)

    def _image(self, terms: Sequence[_Term], x: XExp) -> _Image:
        """X^x * terms by an index map on coordinates, sorted by series
        degree: the degrees, the (code, value) entries, and the largest
        twist exponent among the first k entries for each k.

        X^x * c' X^y = sigma^x(c') X^(x+y), and sigma^x is the context's
        `twist_endo(x)`, so a term (comp, y, m') goes to
        (comp, x + y, sigma^x(m')) with its coefficient unchanged, and is
        dropped once its degree reaches the truncation. As in
        `SkewPoly.__mul__`, the first term with x + y outside the context
        window raises WindowExceeded, or, if its image exponent leaves the
        grid, PrecisionUnderflow.
        """
        window, bound = self.ctx.window, self.ctx.base.max_scaled
        endo = self.ctx.twist_endo(x)
        image = []
        for comp, y, mono, c in terms:
            xy = tuple(map(operator.add, x, y))
            top = max(xy, default=0)
            if top > window:
                raise WindowExceeded(f"product exponent {xy} exceeds window {window}")
            new = endo.scale(mono)
            deg = sum(new)
            if deg < bound:
                image.append((deg, self._code(comp, xy, new), c, top))
        image.sort(key=operator.itemgetter(0))
        tops = [0]
        for entry in image:
            tops.append(max(tops[-1], entry[3]))
        return [e[0] for e in image], [(e[1], e[2]) for e in image], tops

    def shifted(
        self, terms: Sequence[_Term], xs: Sequence[XExp], ms: Sequence[Mono]
    ) -> Iterator[Tuple[fp_linalg.Row, int]]:
        """The products (ms[i] X^xs[i]) * terms by an index map on
        coordinates, as (row {code: value}, largest twist exponent) per
        product (0 for a zero product), made one at a time, so a caller
        can stop at the first lossy product.

        m X^x * c' X^y = m sigma^x(c') X^(x+y): the image X^x * terms is
        built once per distinct x, at the first product that uses it, so
        its window and grid errors are those of the first failing term in
        product order. The monomial m keeps the terms whose degree stays
        below the truncation after adding |m|, a prefix of the image, and
        moves each by the code of m.
        """
        bound = self.ctx.base.max_scaled
        images: Dict[XExp, _Image] = {}
        moves: Dict[Mono, Tuple[int, int]] = {}  # m -> (degree limit, code)
        for x, m in zip(xs, ms):
            if x not in images:
                images[x] = self._image(terms, x)
            if m not in moves:
                moves[m] = (bound - sum(m), sum(map(operator.mul, m, self.wm)))
            degs, entries, tops = images[x]
            limit, shift = moves[m]
            k = bisect.bisect_left(degs, limit)
            yield {c + shift: v for c, v in entries[:k]}, tops[k]


def _assemble(columns: Iterable[fp_linalg.Row], p: int) -> fp_linalg.FpMatrix:
    """The F_p matrix with one column per {code: value} row of columns.

    Rows are the codes that some column reaches, ascending: no zero rows,
    and row order leaves the reduced echelon form, hence every solution,
    kernel basis and row span, unchanged.
    """
    rows: Dict[int, fp_linalg.Row] = {}
    j = -1
    for j, column in enumerate(columns):
        for c, v in column.items():
            rows.setdefault(c, {})[j] = v
    return fp_linalg.FpMatrix([rows[c] for c in sorted(rows)], j + 1, p)


def _products(
    coords: _Coords, flats: Sequence[Sequence[_Term]], keys: Sequence[_Key]
) -> Iterable[Tuple[fp_linalg.Row, int]]:
    """(row, largest twist exponent) of X^xexp * mono * g_i per key, as
    `_Coords.shifted` makes it from the flattened generator flats[i]."""
    for gi, group in itertools.groupby(keys, key=operator.itemgetter(0)):
        _, xs, ms = zip(*group)
        yield from coords.shifted(flats[gi], xs, ms)


def span_contains(
    generators: Sequence[Sequence[SkewPoly]],
    deg: int,
    window: int,
    queries: Sequence[Sequence[SkewPoly]],
) -> List[bool]:
    """Whether each query tuple lies in the F_p span of the nonzero
    products X^xexp * mono * generators[i] of total twist degree deg whose
    twist exponents all stay within the window.

    The window is checked on the computed product, since a term can vanish
    by truncation; a product that truncates to nothing spans nothing. The
    products are rows of the index map, as in the syzygy blocks, and the
    span is their reduced echelon basis. A generator or query of another
    length than generators[0] is refused before any product is made.
    """
    ctx = generators[0][0].ctx
    coords = _Coords(ctx, len(generators[0]))
    flats = [coords.terms(g) for g in generators]
    columns = [coords.column(q) for q in queries]
    degrees = [max(poly.xdegree() for poly in g) for g in generators]
    xbounds = (window,) * len(ctx.twist_vars)
    keys = _block_keys(degrees, xbounds, deg, _series_monomials(ctx.base))
    products = _products(coords, flats, keys)
    rows = [row for row, top in products if row and top <= window]
    return fp_linalg.RowSpace(coords.matrix(rows)).contains(coords.matrix(columns))


def _coefficients(
    ctx: SkewContext, n: int, pairs: Iterable[Tuple[_Key, int]]
) -> Tuple[SkewPoly, ...]:
    """(lambda_1, ..., lambda_n) from (key, value) pairs with nonzero values,
    in the order their terms are to be stored."""
    parts: List[Dict[XExp, Dict[Mono, int]]] = [{} for _ in range(n)]
    for (gi, x, mono), v in pairs:
        parts[gi].setdefault(x, {})[mono] = v
    return tuple(
        SkewPoly(ctx, {x: TruncSeries(ctx.base, terms) for x, terms in part.items()})
        for part in parts
    )


def _multiply_accumulate(
    ctx: SkewContext, pairs: Iterable[Tuple[SkewPoly, SkewPoly]]
) -> SkewPoly:
    """sum(a * b) over the pairs (a, b), in ctx, by the twisted rule
    (c X^xa)(c' X^xb) = c * sigma^xa(c') X^(xa+xb).

    Every term product goes, unreduced, into one {twist exponent:
    {monomial: coefficient}} accumulator, and zeros are dropped once at the
    end, so no partial product or partial sum becomes a ring element. The
    errors are those of multiplying pair by pair and summing, in the same
    order: per pair, a context mismatch of a and b before its products and
    of a and ctx after them; per (xa, xb) in visiting order, WindowExceeded,
    then PrecisionUnderflow from the twist.
    """
    acc: Dict[XExp, Dict[Mono, int]] = {}
    for a, b in pairs:
        a._check(b)
        actx = a.ctx
        for xa, ca in a.coeffs.items():
            endo = actx.twist_endo(xa)
            for xb, cb in b.coeffs.items():
                x = tuple(map(operator.add, xa, xb))
                if max(x, default=0) > actx.window:
                    raise WindowExceeded(
                        f"product exponent {x} exceeds window {actx.window}"
                    )
                ca.ring.mul_into(acc.setdefault(x, {}), ca, endo.apply(cb))
        if actx is not ctx and actx != ctx:
            raise ContextMismatch("mixed skew contexts")
    base = ctx.base
    return SkewPoly(ctx, {x: base.reduced(terms) for x, terms in acc.items()})


def _combination(lams: Sequence[SkewPoly], generators: Sequence[SkewPoly]) -> SkewPoly:
    """sum(lambda_i * g_i), for the re-verification by substitution."""
    return _multiply_accumulate(generators[0].ctx, zip(lams, generators))


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
    flattened monomial basis. The generators must be nonzero and homogeneous
    in total twist degree, so the system is block diagonal by degree and is
    solved one homogeneous component of elem at a time (free variables 0, as
    for the whole system). On success the certificate is re-verified by
    multiplication; on failure returns NOT_IN_IDEAL_AT_BOUND (a statement
    relative to the given bounds only).
    """
    _require_homogeneous(generators)
    ctx = elem.ctx
    if not _fits(elem, _image_bounds(generators, xbounds)):
        raise WindowExceeded("element outside the bounded image slab")
    components: Dict[int, Dict[XExp, TruncSeries]] = {}
    for x, c in elem.coeffs.items():
        components.setdefault(sum(x), {})[x] = c
    p = ctx.base.p
    monos = _series_monomials(ctx.base)
    coords = _Coords(ctx, 1)
    flats = [coords.terms((g,)) for g in generators]
    degrees = [g.xdegree() for g in generators]
    pairs: List[Tuple[_Key, int]] = []
    for deg in sorted(components):
        block = _block_keys(degrees, xbounds, deg, monos)
        if not block:
            return NOT_IN_IDEAL_AT_BOUND
        columns = [row for row, _ in _products(coords, flats, block)]
        columns.append(coords.column((SkewPoly(ctx, components[deg]),)))
        m = _assemble(columns, p)
        n = len(block)
        rhs = [row.pop(n, 0) for row in m.data]
        sol = fp_linalg.solve(fp_linalg.FpMatrix(m.data, n, p), rhs)
        if sol is None:
            return NOT_IN_IDEAL_AT_BOUND
        pairs += [(block[c], v) for c, v in sol.items()]
    lams = _coefficients(ctx, len(generators), pairs)
    if _combination(lams, generators) != elem:
        raise AssertionError("membership certificate failed re-multiplication")
    return MembershipCertificate(lams)


def syzygy_bounded(
    generators: Sequence[SkewPoly], xbounds: XExp, max_degree: int
) -> Dict[int, List[Tuple[SkewPoly, ...]]]:
    """Basis of the bounded loss-free relation module of the generators, by
    total twist degree.

    The columns are the products X^xexp * mono * g_i with xexp <= xbounds
    and series degree sum(mono) <= max_degree (in scaled exponents) that
    lose no term of g_i to truncation: exponent scaling is injective, so
    such a product has as many coordinates as g_i has terms. Returns
    {degree: [(lambda_1, ..., lambda_m), ...]}, ascending by degree and
    holding only degrees with a relation: a basis of the relations
    sum(lambda_i g_i) = 0 in the truncated ring supported on those columns.
    The generators must be nonzero and homogeneous in total twist degree,
    so the matrix is block diagonal by degree and the kernel is computed
    blockwise. Every basis vector is re-verified by substitution.
    """
    _require_homogeneous(generators)
    ctx = generators[0].ctx
    monos = [m for m in _series_monomials(ctx.base) if sum(m) <= max_degree]
    coords = _Coords(ctx, 1)
    flats = [coords.terms((g,)) for g in generators]
    degrees = [g.xdegree() for g in generators]
    top = sum(xbounds) + max(degrees)
    out: Dict[int, List[Tuple[SkewPoly, ...]]] = {}
    for deg in range(top + 1):
        block = _block_keys(degrees, xbounds, deg, monos)
        kept = [
            (key, row)
            for key, (row, _) in zip(block, _products(coords, flats, block))
            if len(row) == len(flats[key[0]])
        ]
        if not kept:
            continue
        keys, columns = zip(*kept)
        for kvec in fp_linalg.kernel_basis(_assemble(columns, ctx.base.p)):
            pairs = ((keys[c], v) for c, v in kvec.items())
            lams = _coefficients(ctx, len(generators), pairs)
            if not _combination(lams, generators).is_zero():
                raise AssertionError("syzygy basis vector failed substitution")
            out.setdefault(deg, []).append(lams)
    return out
