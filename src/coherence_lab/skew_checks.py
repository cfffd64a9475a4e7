"""Bounded verification of the two-variable relation module, the monomial
obstruction to finite generation, and the one-variable coherence machinery.

Everything here runs at explicit finite scale: series truncated at degree N,
twist exponents inside a window. Soundness statements (an element IS a
relation, a certificate reproduces its target) are exact. Completeness
statements are bound-relative and asserted only inside a safety margin,
because truncation creates spurious kernel vectors near the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import fp_linalg
from .skew_series import FrobeniusEndo, PrecisionUnderflow, SeriesRing, TruncSeries
from .skew_poly import (
    NOT_IN_IDEAL_AT_BOUND,
    SkewContext,
    SkewPoly,
    ideal_membership_bounded,
    syzygy_bounded,
)

PolyPair = Tuple[SkewPoly, SkewPoly]


def pair_context(
    p: int, n_u: int, n_v: int, trunc: int, window: int, precision: int = 0
) -> SkewContext:
    """The ring F_p[[s, t]]/(deg >= trunc) twisted by D and E.

    D raises s-exponents by p^n_u and fixes t; E does the symmetric thing.
    Precision 0 (integer exponents) is the faithful model of the relation
    module; positive precision refines the exponent grid to 1/p^precision.
    """
    ring = SeriesRing(p, ("s", "t"), trunc, precision)
    return SkewContext(
        ring, ("D", "E"), {"D": {"s": n_u, "t": 0}, "E": {"s": 0, "t": n_v}}, window
    )


def one_var_context(p: int, trunc: int, window: int) -> SkewContext:
    """The ring F_p[t]/(t^trunc) twisted by F with t -> t^p."""
    ring = SeriesRing(p, ("t",), trunc, 0)
    return SkewContext(ring, ("F",), {"F": {"t": 1}}, window)


def build_S_generators(
    ctx: SkewContext, n_u: int, n_v: int, m_max: int, corrupt_s1: bool = False
) -> List[Tuple[str, PolyPair]]:
    """The relation generators over (s, t, D - E), as labelled pairs.

    With trivial units the twisted images are pure powers, so the mixing
    coefficients are forced: sigma_D(s) = s^(p^n_u) = s^(p^n_u - 1) * s, and
    the single S1 element is (D - s^(p^n_u - 1) E, 0); symmetrically for S2.
    S3 collects the commutative relations (t E^m, -s D^m) for m <= m_max.
    corrupt_s1 deliberately writes a wrong power (negative control).
    """
    ring = ctx.base
    p = ring.p
    s = lambda e: ring.var("s", e)
    t = lambda e: ring.var("t", e)
    D = ctx.gen("D")
    E = ctx.gen("E")
    zero = ctx.zero()

    exp1 = p**n_u if corrupt_s1 else p**n_u - 1
    b = SkewPoly.from_series(ctx, s(exp1))
    c = SkewPoly.from_series(ctx, t(p**n_v - 1))
    out: List[Tuple[str, PolyPair]] = [
        ("S1[0]", (D - b * E, zero)),
        ("S2[0]", (zero, E - c * D)),
    ]
    for m in range(m_max + 1):
        tEm = SkewPoly.from_series(ctx, t(1)) * ctx.gen("E", m)
        sDm = SkewPoly.from_series(ctx, s(1)) * ctx.gen("D", m)
        out.append((f"S3[{m}]", (tEm, -sDm)))
    return out


@dataclass
class RelationReport:
    """Outcome of the relation-generator verification."""

    p: int
    n_u: int
    n_v: int
    trunc: int
    window: int
    m_max: int
    margin: int
    soundness: List[Tuple[str, bool]] = field(default_factory=list)
    kernel_dim: int = 0
    interior_checked: int = 0
    completeness_exceptions: List[str] = field(default_factory=list)

    @property
    def soundness_ok(self) -> bool:
        return all(ok for _, ok in self.soundness)

    @property
    def completeness_ok(self) -> bool:
        return not self.completeness_exceptions

    @property
    def ok(self) -> bool:
        return self.soundness_ok and self.completeness_ok


def verify_relations(
    p: int,
    n_u: int,
    n_v: int,
    window: int,
    trunc: int,
    m_max: int,
    margin: int = 1,
    corrupt_s1: bool = False,
    precision: int = 0,
) -> RelationReport:
    """Check the S-generators against the bounded relation kernel.

    Soundness: every built S element, completed with a left coefficient on
    D - E found by bounded ideal membership, is an exact relation among
    (s, t, D - E). Completeness (bound-relative): every kernel basis vector
    whose twist exponents stay margin below the window and whose series
    degree stays below trunc - trunc/4 lies in the bounded left span of S.
    """
    cap = max(window, m_max) + 2
    ctx = pair_context(p, n_u, n_v, trunc, cap, precision)
    ring = ctx.base
    s_elem = SkewPoly.from_series(ctx, ring.var("s"))
    t_elem = SkewPoly.from_series(ctx, ring.var("t"))
    dme = ctx.gen("D") - ctx.gen("E")
    gens3 = [s_elem, t_elem, dme]

    report = RelationReport(
        p=p, n_u=n_u, n_v=n_v, trunc=trunc, window=window, m_max=m_max, margin=margin
    )
    labelled = build_S_generators(ctx, n_u, n_v, m_max, corrupt_s1=corrupt_s1)

    for name, (x, y) in labelled:
        u = x * s_elem + y * t_elem
        hit = ideal_membership_bounded(u, [dme], u.max_xexp())
        if hit is NOT_IN_IDEAL_AT_BOUND:
            report.soundness.append((name, False))
            continue
        lam3 = hit.coefficients[0]
        residue = x * s_elem + y * t_elem - lam3 * dme
        report.soundness.append((name, residue.is_zero()))

    kernel = syzygy_bounded(gens3, (window, window))
    report.kernel_dim = len(kernel)

    series_cap = (trunc - trunc // 4) * ring.scale
    bound_scaled = ring.max_scaled

    def truncation_free(tup) -> bool:
        # A kernel vector whose product with (s, t, D-E) loses a term to
        # series truncation is a boundary artifact, not a relation of the
        # untruncated ring; the twisted growth is p^(a n_u) resp. p^(b n_v).
        for (a, b), c in tup[0].coeffs.items():
            if c.degree_scaled() + p ** (a * n_u) * ring.scale >= bound_scaled:
                return False
        for (a, b), c in tup[1].coeffs.items():
            if c.degree_scaled() + p ** (b * n_v) * ring.scale >= bound_scaled:
                return False
        return True

    def interior(tup) -> bool:
        for lam in tup:
            if any(e > window - margin for e in lam.max_xexp()):
                return False
            if lam.max_series_degree_scaled() > series_cap:
                return False
        return truncation_free(tup)

    by_degree: Dict[int, List[PolyPair]] = {}
    for tup in kernel:
        if not interior(tup):
            continue
        deg = max(tup[0].xdegree(), tup[1].xdegree(), tup[2].xdegree() + 1)
        if deg < 0:
            continue
        by_degree.setdefault(deg, []).append((tup[0], tup[1]))

    monos = _series_monomial_list(ring)
    for deg in sorted(by_degree):
        flat_idx, dim = _pair_degree_index(window, deg, monos)
        columns = []
        for name, (sx, sy) in labelled:
            d_i = max(sx.xdegree(), sy.xdegree())
            if d_i < 0 or d_i > deg:
                continue
            for xexp in _xexps_of_degree(deg - d_i, window):
                for mono in monos:
                    mu = SkewPoly(ctx, {xexp: TruncSeries(ring, {mono: 1})})
                    px, py = mu * sx, mu * sy
                    if any(e > window for e in px.max_xexp()) or any(
                        e > window for e in py.max_xexp()
                    ):
                        continue
                    vec = _pair_to_vec((px, py), flat_idx, dim)
                    if vec is not None:
                        columns.append(vec)
        span_s = fp_linalg.RowSpace(columns, p, dim)
        for (lx, ly) in by_degree[deg]:
            report.interior_checked += 1
            vec = _pair_to_vec((lx, ly), flat_idx, dim)
            if vec is None or not span_s.contains(vec):
                report.completeness_exceptions.append(
                    f"degree {deg}: kernel vector ({lx!r}, {ly!r}) outside span(S)"
                )
    return report


def _series_monomial_list(ring: SeriesRing) -> List[Tuple[int, ...]]:
    from .skew_poly import _series_monomials

    return _series_monomials(ring)


def _xexps_of_degree(total: int, window: int) -> List[Tuple[int, int]]:
    return [
        (a, total - a)
        for a in range(max(0, total - window), min(window, total) + 1)
    ]


def _pair_degree_index(window: int, deg: int, monos):
    basis = [
        (comp, xexp, mono)
        for comp in (0, 1)
        for xexp in _xexps_of_degree(deg, window)
        for mono in monos
    ]
    return {b: i for i, b in enumerate(basis)}, len(basis)


def _pair_to_vec(pair: PolyPair, flat_idx, dim) -> Optional[List[int]]:
    v = [0] * dim
    for comp, poly in enumerate(pair):
        for xexp, c in poly.coeffs.items():
            for mono, coeff in c.terms.items():
                key = (comp, xexp, mono)
                if key not in flat_idx:
                    return None
                v[flat_idx[key]] = coeff
    return v


def monomial_obstruction(
    p: int,
    s_exp,
    t_exp,
    n_u: int,
    n_v: int,
    window: int,
    precision: Optional[int] = None,
) -> bool:
    """Whether the monomial s^s_exp t^t_exp falls into one of the twisted
    product ideals (s^(p^(a n_u))) (t^(p^(b n_v))) with a + b >= 1, |a|, |b|
    bounded by the window.

    Exponents may be p-power fractions; they are checked on the 1/p^r grid,
    with r defaulting to the minimal sufficient precision.
    """
    pair = _obstruction_witness(p, s_exp, t_exp, n_u, n_v, window, precision)
    return pair is not None


def _obstruction_witness(
    p, s_exp, t_exp, n_u, n_v, window, precision
) -> Optional[Tuple[int, int]]:
    if window < 1:
        raise ValueError("window must be >= 1")
    if n_u < 0 or n_v < 0:
        raise ValueError("n_u, n_v must be >= 0")
    needed = window * max(n_u, n_v, 1)
    r = needed if precision is None else precision
    scale = p**r
    se = Fraction(s_exp) * scale
    te = Fraction(t_exp) * scale
    if se.denominator != 1 or te.denominator != 1:
        raise PrecisionUnderflow(f"monomial exponents not on the 1/p^{r} grid")
    se, te = int(se), int(te)
    for a in range(-window, window + 1):
        for b in range(max(1 - a, -window), window + 1):
            ea = a * n_u + r
            eb = b * n_v + r
            if ea < 0 or eb < 0:
                raise PrecisionUnderflow(
                    f"precision {r} cannot represent p^({a}*{n_u}) or p^({b}*{n_v})"
                )
            if se >= p**ea and te >= p**eb:
                return (a, b)
    return None


@dataclass
class ChainStep:
    stage: int
    strict: bool
    collapse_pair: Optional[Tuple[int, int]]


@dataclass
class NotFgReport:
    p: int
    n_u: int
    n_v: int
    window: int
    steps: List[ChainStep]

    @property
    def all_strict(self) -> bool:
        return all(s.strict for s in self.steps)


def not_fg_demonstration(
    p: int,
    n_u: int,
    n_v: int,
    n_max: int,
    window: int,
    precision: Optional[int] = None,
) -> NotFgReport:
    """Strictness of the generator chain of the quotient relation module.

    Stage m asks whether the cyclic vector at level m+1 already lies in the
    span of the generators up to level m; unwinding the module action, that
    would place s*t in one of the twisted product ideals, so each stage is
    certified by the monomial obstruction. With n_u = n_v = 0 the control
    collapses at every stage.
    """
    steps = []
    for m in range(1, n_max + 1):
        pair = _obstruction_witness(p, 1, 1, n_u, n_v, window, precision)
        steps.append(ChainStep(stage=m, strict=pair is None, collapse_pair=pair))
    return NotFgReport(p=p, n_u=n_u, n_v=n_v, window=window, steps=steps)


@dataclass
class FreeDecompositionReport:
    p: int
    trunc: int
    checked: int
    unique: bool
    onto: bool

    @property
    def ok(self) -> bool:
        return self.unique and self.onto


def one_var_free_decomposition(p: int, trunc: int) -> FreeDecompositionReport:
    """Base-p bookkeeping for A = k[t]/(t^trunc) over sigma(A), sigma(t)=t^p.

    Every monomial t^e decomposes uniquely as t^(e mod p) * sigma(t^(e div p))
    and every pair (remainder below p, quotient) below truncation arises:
    the decomposition is a bijection. Verified by ring arithmetic.
    """
    ring = SeriesRing(p, ("t",), trunc, 0)
    sigma = FrobeniusEndo(ring, {"t": 1})
    seen = {}
    unique = True
    for e in range(trunc):
        rem, quo = e % p, e // p
        image = ring.var("t", rem) * sigma.apply(ring.var("t", quo))
        if image != ring.var("t", e):
            unique = False
        if (rem, quo) in seen:
            unique = False
        seen[(rem, quo)] = e
    pairs = {(x, q) for x in range(p) for q in range(trunc) if x + p * q < trunc}
    onto = set(seen) == pairs
    return FreeDecompositionReport(
        p=p, trunc=trunc, checked=trunc, unique=unique, onto=onto
    )


# ---------------------------------------------------------------------------
# One-variable module machinery: flattened spans of submodules of R^n.


class ModuleFlat:
    """F_p coordinates on n-tuples over the one-variable ring, F-degree
    bounded, ordered high-F-degree first so echelon rows split cleanly into
    degree filtration pieces."""

    def __init__(self, ctx: SkewContext, ncomp: int, fbound: int):
        self.ctx = ctx
        self.ncomp = ncomp
        self.fbound = fbound
        ring = ctx.base
        self.basis = [
            (comp, j, e)
            for j in range(fbound, -1, -1)
            for comp in range(ncomp)
            for e in range(ring.max_scaled)
        ]
        self.index = {b: i for i, b in enumerate(self.basis)}
        self.dim = len(self.basis)

    def to_vec(self, elem: Sequence[SkewPoly]) -> List[int]:
        v = [0] * self.dim
        for comp, poly in enumerate(elem):
            for (j,), c in poly.coeffs.items():
                for (e,), coeff in c.terms.items():
                    v[self.index[(comp, j, e)]] = coeff
        return v

    def from_vec(self, v: Sequence[int]) -> Tuple[SkewPoly, ...]:
        ring = self.ctx.base
        per: List[Dict[Tuple[int], Dict[Tuple[int], int]]] = [
            {} for _ in range(self.ncomp)
        ]
        for i, c in enumerate(v):
            c %= ring.p
            if c:
                comp, j, e = self.basis[i]
                per[comp].setdefault((j,), {})[(e,)] = c
        return tuple(
            SkewPoly(
                self.ctx,
                {x: TruncSeries(ring, terms) for x, terms in per[comp].items()},
            )
            for comp in range(self.ncomp)
        )

    def low_cut(self, k: int) -> int:
        """First basis index of the F-degree <= k zone."""
        return next(
            (i for i, (comp, j, e) in enumerate(self.basis) if j <= k), self.dim
        )


def _mul_monomial_lossfree(
    ctx: SkewContext, a: int, j: int, poly: SkewPoly
) -> Optional[SkewPoly]:
    """t^a F^j * poly in the honest (untruncated) ring, or None when any
    product monomial would overflow the series slab.

    Silent truncation would identify distinct honest elements; skipping
    lossy products keeps every span vector an exact element of the
    untruncated module, at the cost of a smaller visible slab.
    """
    ring = ctx.base
    p = ring.p
    out: Dict[Tuple[int, ...], TruncSeries] = {}
    terms: Dict[Tuple[int, ...], Dict[Tuple[int, ...], int]] = {}
    for (jj,), c in poly.coeffs.items():
        for (e,), coeff in c.terms.items():
            e2 = a + e * p**j
            if e2 >= ring.max_scaled:
                return None
            terms.setdefault((j + jj,), {})[(e2,)] = coeff
    for x, tms in terms.items():
        out[x] = TruncSeries(ring, tms)
    return SkewPoly(ctx, out)


def _tuple_mul_lossfree(ctx, a, j, elem) -> Optional[Tuple[SkewPoly, ...]]:
    parts = []
    for poly in elem:
        prod = _mul_monomial_lossfree(ctx, a, j, poly)
        if prod is None:
            return None
        parts.append(prod)
    return tuple(parts)


def module_span(
    ctx: SkewContext,
    generators: Sequence[Sequence[SkewPoly]],
    flat: ModuleFlat,
    maxdeg: Optional[int] = None,
) -> fp_linalg.RowSpace:
    """The visible left-module span of the generators: all loss-free
    products t^a F^j * g with F-degree at most maxdeg."""
    ring = ctx.base
    top = flat.fbound if maxdeg is None else maxdeg
    vectors = []
    for g in generators:
        gdeg = max((poly.xdegree() for poly in g), default=-1)
        if gdeg < 0:
            continue
        for j in range(top - gdeg + 1):
            for a in range(ring.max_scaled):
                prod = _tuple_mul_lossfree(ctx, a, j, g)
                if prod is not None:
                    vectors.append(flat.to_vec(prod))
    return fp_linalg.RowSpace(vectors, ring.p, flat.dim)


def _f_multiples(
    ctx: SkewContext, flat: ModuleFlat, elems: Sequence[Sequence[SkewPoly]]
) -> fp_linalg.RowSpace:
    """The span of the loss-free products t^a F * m over the given m."""
    vectors = []
    for m in elems:
        for a in range(ctx.base.max_scaled):
            prod = _tuple_mul_lossfree(ctx, a, 1, m)
            if prod is not None:
                vectors.append(flat.to_vec(prod))
    return fp_linalg.RowSpace(vectors, ctx.base.p, flat.dim)


@dataclass
class FiltrationReport:
    k_checked: List[int]
    failures: List[int]

    @property
    def ok(self) -> bool:
        return not self.failures


def filtration_identity_check(
    generators: Sequence[Sequence[SkewPoly]], k_max: int
) -> FiltrationReport:
    """Span equality (JM)^{<=k} = A F M^{<=k-1} for k = 1..k_max.

    Both sides are computed as F_p subspaces of the flattened bounded slab,
    in loss-free semantics: only products with no truncated monomial enter
    a span, so every vector is an exact element of the untruncated module.
    (In the truncated quotient the identity genuinely fails: a multiplier
    t^a can kill a twisted head while sparing lower terms, which produces
    spurious low-degree elements of JM.) The left side is the degree
    filtration of the span of A F * (basis of M); the right side comes from
    the low-degree part of M.
    """
    if not generators:
        raise ValueError("need at least one generator tuple")
    ctx = generators[0][0].ctx
    ncomp = len(generators[0])
    gmax = max(
        max((poly.xdegree() for poly in g), default=0) for g in generators
    )
    # M is generated to degree B with two units of slack above k_max; JM
    # products then reach B + 1, which the slab and window must admit.
    bspan = k_max + gmax + 2
    if ctx.window < bspan + 1:
        raise ValueError(f"context window {ctx.window} < required {bspan + 1}")
    flat = ModuleFlat(ctx, ncomp, bspan + 1)

    m_span = module_span(ctx, generators, flat, maxdeg=bspan)
    m_elems = [flat.from_vec(r) for r in m_span.rows.tolist()]

    # J M = A F M: loss-free products t^a F * m over a spanning set of M.
    jm = _f_multiples(ctx, flat, m_elems)

    report = FiltrationReport(k_checked=[], failures=[])
    for k in range(1, k_max + 1):
        lhs = jm.low_part(flat.low_cut(k))
        m_low = m_span.low_part(flat.low_cut(k - 1)).tolist()
        rhs = _f_multiples(ctx, flat, [flat.from_vec(r) for r in m_low]).rows
        report.k_checked.append(k)
        if not np.array_equal(lhs, rhs):
            report.failures.append(k)
    return report


def mjm_degree_detect(
    generators: Sequence[Sequence[SkewPoly]], bound: int
) -> int:
    """Smallest d <= bound such that R * M^{<=d} covers every filtration
    piece M^{<=k} for k <= bound; bound+1 signals not detected."""
    if not generators:
        raise ValueError("need at least one generator tuple")
    ctx = generators[0][0].ctx
    ncomp = len(generators[0])
    gmax = max(
        max((poly.xdegree() for poly in g), default=0) for g in generators
    )
    fbound = bound + gmax + 2
    if ctx.window < fbound:
        raise ValueError(f"context window {ctx.window} < required {fbound}")
    flat = ModuleFlat(ctx, ncomp, fbound)
    m_span = module_span(ctx, generators, flat, maxdeg=fbound)
    # The pieces M^{<=k} are nested, so covering the top one covers them all.
    top = m_span.low_part(flat.low_cut(bound))
    for d in range(bound + 1):
        md = m_span.low_part(flat.low_cut(d)).tolist()
        if module_span(ctx, [flat.from_vec(r) for r in md], flat).contains(top).all():
            return d
    return bound + 1
