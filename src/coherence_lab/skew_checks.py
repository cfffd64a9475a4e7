"""Bounded verification of the two-variable relation module and the
one-variable coherence machinery. The monomial obstruction to finite
generation, which needs no series arithmetic, lives in `obstruction`.

Everything here runs at explicit finite scale: series truncated at degree N,
twist exponents inside a window. Soundness statements (an element IS a
relation, a certificate reproduces its target) are exact. Completeness
statements are bound-relative and asserted only inside a safety margin,
because truncation creates spurious kernel vectors near the boundary.

The relation check hands its S-generators and kernel pairs to
`skew_poly.span_contains`, which decides span(S) membership. The
one-variable spans run on the same coordinates, `skew_poly._Coords`, which
own how a tuple is coordinatised and how a monomial acts on it: a
generator enters as its terms, a loss-free product t^a F^j is a
`_Coords.shifted` row with as many entries as its factor has terms, and a
basis row decodes back into its terms when it is multiplied again. The
degree filtration pieces of a span are cut from its reduced echelon basis
by pivot. Every span stays in {code: value} rows from assembly to answer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Sequence, Tuple

from . import fp_linalg
from .skew_series import SeriesRing
from .skew_poly import (
    NOT_IN_IDEAL_AT_BOUND,
    SkewContext,
    SkewPoly,
    _Coords,
    _Term,
    ideal_membership_bounded,
    span_contains,
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
    (s, t, D - E). Completeness (bound-relative): the relation kernel on the
    interior coordinates (twist exponents at most window - margin, series
    degree at most trunc - trunc/4, products with (s, t, D - E) that lose no
    term to truncation) lies in the bounded left span of S. Only that
    interior kernel is computed; kernel_dim is its dimension.
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
        # A found certificate is re-multiplied inside ideal_membership_bounded.
        hit = ideal_membership_bounded(u, [dme], u.max_xexp())
        report.soundness.append((name, hit is not NOT_IN_IDEAL_AT_BOUND))

    # A kernel vector whose product with (s, t, D-E) loses a term to series
    # truncation is a boundary artifact, not a relation of the untruncated
    # ring; syzygy_bounded computes only the loss-free ones.
    series_cap = (trunc - trunc // 4) * ring.scale
    bound = window - margin
    kernel = syzygy_bounded(gens3, (bound, bound), series_cap)

    s_pairs = [pair for _, pair in labelled]
    for deg, vectors in kernel.items():
        pairs = [(lx, ly) for lx, ly, _ in vectors]
        inside = span_contains(s_pairs, deg, window, pairs)
        report.kernel_dim += len(pairs)
        for (lx, ly), ok in zip(pairs, inside):
            if not ok:
                report.completeness_exceptions.append(
                    f"degree {deg}: kernel vector ({lx!r}, {ly!r}) outside span(S)"
                )
    return report


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
    ctx = one_var_context(p, trunc, 1)
    ring, sigma = ctx.base, ctx.twist_endo((1,))
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
# One-variable module machinery: spans of loss-free products in R^n.


def _multiples(
    coords: _Coords, terms: Sequence[_Term], fdegrees: Iterable[int]
) -> List[fp_linalg.Row]:
    """The coordinate rows of the loss-free products t^a F^j * elem for j
    in fdegrees and a = 0, 1, ..., where elem has the given terms.

    A product keeps every term exactly when its row has as many entries as
    elem has terms; silent truncation would identify distinct elements of
    the untruncated module. Once t^a F^j loses a term, every larger a loses
    one too, which ends the a-loop.
    """
    out: List[fp_linalg.Row] = []
    ms = [(a,) for a in range(coords.ctx.base.max_scaled)]
    for j in fdegrees:
        for row, _ in coords.shifted(terms, itertools.repeat((j,)), ms):
            if len(row) < len(terms):
                break
            out.append(row)
    return out


def _span_multiples(
    coords: _Coords, elems: Sequence[Sequence[_Term]], top: int
) -> List[fp_linalg.Row]:
    """The loss-free products t^a F^j * g of F-degree at most top over the
    nonzero elements g, given by their terms."""
    rows: List[fp_linalg.Row] = []
    for terms in elems:
        if terms:
            degree = max(x for _, (x,), _, _ in terms)
            rows += _multiples(coords, terms, range(top - degree + 1))
    return rows


def module_span(
    coords: _Coords, elems: Sequence[Sequence[_Term]], top: int
) -> fp_linalg.RowSpace:
    """The visible left-module span of the elements, given by their terms:
    all loss-free products t^a F^j * g with F-degree at most top."""
    return fp_linalg.RowSpace(coords.matrix(_span_multiples(coords, elems, top)))


def _generated_span(
    generators: Sequence[Sequence[SkewPoly]], k: int, headroom: int
) -> Tuple[_Coords, int, fp_linalg.RowSpace]:
    """Coordinates on the tuples, the F-degree k + gmax + 2 (gmax the
    largest generator degree) and the span of the generator tuples up to it.
    The context window must admit that degree plus headroom."""
    if not generators:
        raise ValueError("need at least one generator tuple")
    ctx = generators[0][0].ctx
    gmax = max(
        max((poly.xdegree() for poly in g), default=0) for g in generators
    )
    span_deg = k + gmax + 2
    if ctx.window < span_deg + headroom:
        raise ValueError(
            f"context window {ctx.window} < required {span_deg + headroom}"
        )
    coords = _Coords(ctx, len(generators[0]))
    elems = [coords.terms(g) for g in generators]
    return coords, span_deg, module_span(coords, elems, span_deg)


def _basis_by_degree(
    coords: _Coords, span: fp_linalg.RowSpace, top: int
) -> Iterator[List[_Term]]:
    """For d = 0..top, the terms of the basis rows of F-degree d: the rows
    of the piece of degree <= d that the piece of degree <= d - 1 lacks,
    each decoded once."""
    done = 0
    for d in range(top + 1):
        piece = span.low_part(coords.first((d,)))
        yield [coords.decode(row) for row in piece[: len(piece) - done]]
        done = len(piece)


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

    Both sides are computed as F_p subspaces of the coordinates, in
    loss-free semantics: only products with no truncated monomial enter a
    span, so every vector is an exact element of the untruncated module.
    (In the truncated quotient the identity genuinely fails: a multiplier
    t^a can kill a twisted head while sparing lower terms, which produces
    spurious low-degree elements of JM.) The left side is the degree
    filtration of the span of A F * (basis of M); the right side comes from
    the low-degree part of M. The degree-<=k piece of a span is its basis
    rows from the code `first((k,))` on.
    """
    # M is generated to degree B with two units of slack above k_max; JM
    # products then reach B + 1, which the window must admit.
    coords, span_deg, m_span = _generated_span(generators, k_max, 1)

    # J M = A F M: loss-free products t^a F * m over the basis of M, by
    # ascending degree of m, so those of M^{<=k} come first.
    jm_rows: List[fp_linalg.Row] = []
    counts = []
    for piece in _basis_by_degree(coords, m_span, span_deg):
        for terms in piece:
            jm_rows += _multiples(coords, terms, (1,))
        counts.append(len(jm_rows))
    jm = fp_linalg.RowSpace(coords.matrix(jm_rows))

    report = FiltrationReport(k_checked=[], failures=[])
    for k in range(1, k_max + 1):
        cut = coords.first((k,))
        lhs = {c: row for c, row in jm.basis.items() if c >= cut}
        rhs = fp_linalg.RowSpace(coords.matrix(jm_rows[: counts[k - 1]]))
        report.k_checked.append(k)
        if lhs != rhs.basis:
            report.failures.append(k)
    return report


def mjm_degree_detect(
    generators: Sequence[Sequence[SkewPoly]], bound: int
) -> int:
    """Smallest d <= bound such that R * M^{<=d} covers every filtration
    piece M^{<=k} for k <= bound; bound+1 signals not detected."""
    coords, span_deg, m_span = _generated_span(generators, bound, 0)
    # The pieces M^{<=k} are nested, so covering the top one covers them all.
    query = coords.matrix(m_span.low_part(coords.first((bound,))))
    rows: List[fp_linalg.Row] = []
    for d, piece in enumerate(_basis_by_degree(coords, m_span, bound)):
        rows += _span_multiples(coords, piece, span_deg)
        if all(fp_linalg.RowSpace(coords.matrix(rows)).contains(query)):
            return d
    return bound + 1
