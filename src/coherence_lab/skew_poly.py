"""Skew polynomials in commuting Frobenius-twisted variables.

A context fixes a coefficient series ring, a list of twist variables (D, E
for the two-variable ring, F for the one-variable one), the per-variable
exponent-multiplier logs of their endomorphisms, and a hard window on the
twist exponents. Multiplication follows the twisted rule: moving X^a past a
coefficient applies the a-fold endomorphism, so

    (c X^a) (c' X^b) = c * sigma^a(c') X^(a+b).

The module also provides bounded ideal membership with verified
certificates and bounded syzygy kernels on a coordinate subspace. Both take
twist-homogeneous generators, so their flattened matrices are block diagonal
with respect to total twist degree and are assembled and solved one degree
block at a time. The columns of these blocks, and the multiples of the
span(S) check of `skew_checks`, never become ring elements: `_Coords`
flattens each generator once into F_p coordinates, and left multiplication
by a monomial is an index map on those coordinates (`_Coords.shifted`).
numpy serves that map and nothing after it: in one pass, `_assemble` turns
coordinate columns into the {column: value} rows of an `fp_linalg.FpMatrix`,
one row per coordinate code, and `_code_rows` turns each column into one
row keyed by code; no block is ever held as a dense array. Only the
re-verifications multiply ring elements. `FlatSpace`, the dense whole-slab
indexer, serves as the reference in the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from . import fp_linalg
from .skew_series import (
    ContextMismatch,
    FrobeniusEndo,
    PrecisionUnderflow,
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
    generators: Sequence[SkewPoly],
    xbounds: XExp,
    deg: int,
    monos: Sequence[Mono],
    support: Callable[[int, XExp, Mono], bool] = lambda *_: True,
) -> List[_Key]:
    """The supported domain coordinates whose image has total twist degree
    deg, by generator and then in FlatSpace basis order."""
    keys: List[_Key] = []
    for gi, g in enumerate(generators):
        xdeg = deg - g.xdegree()
        for x in itertools.product(*[range(b + 1) for b in xbounds]):
            if sum(x) == xdeg:
                keys += [(gi, x, m) for m in monos if support(gi, x, m)]
    return keys


class _Terms(NamedTuple):
    """The terms of a tuple of ring elements as parallel arrays, in the
    order a product visits them: by component, twist exponent, monomial."""

    comp: np.ndarray  # (T,)
    x: np.ndarray  # (T, number of twist variables)
    mono: np.ndarray  # (T, number of series variables)
    coeff: np.ndarray  # (T,)
    code: np.ndarray  # (T,) coordinate codes


# Columns for `_assemble` and `_code_rows`: one column per row of codes (-1
# marks no entry), with one value per code position.
_Batch = Tuple[np.ndarray, np.ndarray]


class _Coords:
    """F_p coordinates (component, twist exponent, series monomial) of
    tuples of ring elements, as closed-form integer codes.

    A code is mixed-radix: the component, then each twist exponent (digit
    <= window), then each scaled series exponent (digit < max_scaled).
    """

    def __init__(self, ctx: SkewContext):
        ring = ctx.base
        self.ctx = ctx
        self.nx, self.nv = len(ctx.twist_vars), len(ring.variables)
        radix = [ctx.window + 1] * self.nx + [ring.max_scaled] * self.nv
        weights = np.cumprod([1] + radix[::-1])[::-1]
        self.wcomp = int(weights[0])
        self.wx = weights[1 : self.nx + 1]
        self.wm = weights[self.nx + 1 :]
        # logs[i, v]: the exponent-multiplier log of twist variable i on v.
        self.logs = np.array(
            [[ctx.endo_logs[x][v] for v in ring.variables] for x in ctx.twist_vars],
            dtype=np.int64,
        ).reshape(self.nx, self.nv)

    def terms(self, polys: Sequence[SkewPoly]) -> _Terms:
        """The terms of the tuple polys, with their codes."""
        found = [
            (comp, x, mono, c)
            for comp, poly in enumerate(polys)
            for x, series in poly.coeffs.items()
            for mono, c in series.terms.items()
        ]
        comp = np.array([t[0] for t in found], dtype=np.int64)
        x = np.array([t[1] for t in found], dtype=np.int64).reshape(-1, self.nx)
        mono = np.array([t[2] for t in found], dtype=np.int64).reshape(-1, self.nv)
        if (x > self.ctx.window).any():
            raise WindowExceeded(f"term outside window {self.ctx.window}")
        return _Terms(
            comp,
            x,
            mono,
            np.array([t[3] for t in found], dtype=np.int64),
            comp * self.wcomp + x @ self.wx + mono @ self.wm,
        )

    def column(self, polys: Sequence[SkewPoly]) -> _Batch:
        t = self.terms(polys)
        return t.code[None], t.coeff

    def shifted(
        self, t: _Terms, xs: np.ndarray, ms: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The products (ms[i] X^xs[i]) * t by an index map on coordinates.

        m X^x * c' X^y = m sigma^x(c') X^(x+y), and sigma^x scales each
        series exponent by p^(net log), so a term (comp, y, m') goes to
        (comp, x + y, m + sigma^x(m')) with its coefficient unchanged, and
        is dropped once its degree reaches the truncation. As in
        `SkewPoly.__mul__`, the first term in product order with x + y
        outside the context window raises WindowExceeded, or, if its image
        exponent leaves the grid, PrecisionUnderflow. Returns the codes,
        one row per product with -1 for a truncated term, and each
        product's largest twist exponent (0 for a zero product).
        """
        ring = self.ctx.base
        bound = ring.max_scaled
        logs = xs @ self.logs
        # p^|log| as a Python int, clamped to the truncation: a larger
        # factor truncates every nonzero exponent it scales, and a larger
        # divisor exceeds every exponent it divides, just the same.
        uniq, inv = np.unique(logs, return_inverse=True)
        power = np.array(
            [min(ring.p ** abs(g), bound) for g in uniq.tolist()], dtype=np.int64
        )[inv].reshape(logs.shape)
        mult = np.where(logs > 0, power, 1)[:, None]
        div = np.where(logs < 0, power, 1)[:, None]
        under = (t.mono % div).any(axis=2)
        mono = ms[:, None] + t.mono * mult // div
        x = xs[:, None] + t.x
        over = (x > self.ctx.window).any(axis=2)
        bad = over | under
        if bad.any():
            i, j = np.unravel_index(int(bad.argmax()), bad.shape)
            if over[i, j]:
                raise WindowExceeded(
                    f"product exponent {tuple(x[i, j].tolist())} "
                    f"exceeds window {self.ctx.window}"
                )
            v = int((t.mono[j] % div[i, 0] != 0).argmax())
            raise PrecisionUnderflow(
                f"exponent {t.mono[j, v]}/p^{ring.precision} "
                f"not divisible by p^{-logs[i, v]}"
            )
        kept = mono.sum(axis=2) < bound
        codes = np.where(kept, t.comp * self.wcomp + x @ self.wx + mono @ self.wm, -1)
        top = np.where(kept[..., None], x, 0).max(axis=(1, 2), initial=0)
        return codes, top


def _assemble(
    batches: Iterable[_Batch], p: int
) -> Tuple[fp_linalg.FpMatrix, List[int]]:
    """The F_p matrix with one column per row of each batch, and its row
    codes.

    Rows are the codes that some column reaches, ascending: no zero rows,
    and row order leaves the reduced echelon form, hence every solution,
    kernel basis and row span, unchanged. One pass over the codes fills
    the rows; a column's codes are distinct (the index map of
    `_Coords.shifted` is injective), so no entry is written twice.
    """
    rows: Dict[int, fp_linalg.Row] = {}
    j = 0
    for codes, values in batches:
        values = values.tolist()
        for column in codes.tolist():
            for c, v in zip(column, values):
                if c >= 0:
                    rows.setdefault(c, {})[j] = v
            j += 1
    keys = sorted(rows)
    return fp_linalg.FpMatrix([rows[c] for c in keys], j, p), keys


def _code_rows(batches: Iterable[_Batch]) -> Iterable[fp_linalg.Row]:
    """Each column of the batches as one row {code: value}: the transpose
    of `_assemble`, with the codes themselves as columns."""
    for codes, values in batches:
        values = values.tolist()
        for column in codes.tolist():
            yield {c: v for c, v in zip(column, values) if c >= 0}


def _block_matrix(
    coords: _Coords, flats: Sequence[_Terms], keys: Sequence[_Key], *extra: SkewPoly
) -> fp_linalg.FpMatrix:
    """One column flatten(X^xexp * mono * g_i) per key, shifted from the
    flattened generator flats[i], then one per extra polynomial."""
    batches = []
    for gi, group in itertools.groupby(keys, key=lambda key: key[0]):
        _, xs, ms = zip(*group)
        xs = np.array(xs, dtype=np.int64).reshape(-1, coords.nx)
        ms = np.array(ms, dtype=np.int64).reshape(-1, coords.nv)
        batches.append((coords.shifted(flats[gi], xs, ms)[0], flats[gi].coeff))
    batches += [coords.column((poly,)) for poly in extra]
    return _assemble(batches, coords.ctx.base.p)[0]


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


def _combination(lams: Sequence[SkewPoly], generators: Sequence[SkewPoly]) -> SkewPoly:
    """sum(lambda_i * g_i), for the re-verification by substitution."""
    acc = generators[0].ctx.zero()
    for lam, g in zip(lams, generators):
        acc = acc + lam * g
    return acc


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
    coords = _Coords(ctx)
    flats = [coords.terms((g,)) for g in generators]
    pairs: List[Tuple[_Key, int]] = []
    for deg in sorted(components):
        block = _block_keys(generators, xbounds, deg, monos)
        if not block:
            return NOT_IN_IDEAL_AT_BOUND
        m = _block_matrix(coords, flats, block, SkewPoly(ctx, components[deg]))
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
    generators: Sequence[SkewPoly],
    xbounds: XExp,
    support: Callable[[int, XExp, Mono], bool],
) -> List[Tuple[SkewPoly, ...]]:
    """Basis of the bounded relation module of the generators on a
    coordinate subspace.

    Returns tuples (lambda_1, ..., lambda_m) with sum(lambda_i g_i) = 0 in
    the truncated ring, spanning all such relations whose coordinates lie
    on the slab {exponents <= xbounds} and satisfy support(i, xexp, mono)
    (generator index, twist exponent, series monomial): the kernel of the
    flattened matrix restricted to the supported columns. The generators
    must be nonzero and homogeneous in total twist degree, so the matrix is
    block diagonal by degree and the kernel is computed blockwise. Every
    basis vector is re-verified by substitution.
    """
    _require_homogeneous(generators)
    ctx = generators[0].ctx
    monos = _series_monomials(ctx.base)
    coords = _Coords(ctx)
    flats = [coords.terms((g,)) for g in generators]
    top = sum(xbounds) + max(g.xdegree() for g in generators)
    out: List[Tuple[SkewPoly, ...]] = []
    for deg in range(top + 1):
        keys = _block_keys(generators, xbounds, deg, monos, support)
        if not keys:
            continue
        mat = _block_matrix(coords, flats, keys)
        for kvec in fp_linalg.kernel_basis(mat):
            pairs = ((keys[c], v) for c, v in kvec.items())
            lams = _coefficients(ctx, len(generators), pairs)
            if not _combination(lams, generators).is_zero():
                raise AssertionError("syzygy basis vector failed substitution")
            out.append(lams)
    return out
