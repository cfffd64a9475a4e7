"""Bounded verification of the two-variable relation module and the
one-variable coherence machinery. The monomial obstruction to finite
generation, which needs no series arithmetic, lives in `obstruction`.

Everything here runs at explicit finite scale: series truncated at degree N,
twist exponents inside a window. Soundness statements (an element IS a
relation, a certificate reproduces its target) are exact. Completeness
statements are bound-relative and asserted only inside a safety margin,
because truncation creates spurious kernel vectors near the boundary.

The relation check hands its S-generators and kernel pairs to
`skew_poly.span_contains`, which owns their coordinates and decides span(S)
membership there. One-variable module elements enter F_p coordinates once,
through `ModuleFlat.to_vec`; a loss-free product t^a F^j is then an index
map on the keys of their {index: value} rows (`ModuleFlat.shift`), and
every one-variable span stays in such rows from assembly to answer, with no
dense array between two echelon bases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from . import fp_linalg
from .skew_series import SeriesRing
from .skew_poly import (
    NOT_IN_IDEAL_AT_BOUND,
    SkewContext,
    SkewPoly,
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
        report.interior_checked += len(pairs)
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
# One-variable module machinery: flattened spans of submodules of R^n.


class ModuleFlat:
    """F_p coordinates on n-tuples over the one-variable ring, F-degree
    bounded, ordered high-F-degree first so echelon rows split cleanly into
    degree filtration pieces.

    Index ((fbound - j) * ncomp + comp) * max_scaled + e holds the
    coefficient of t^e F^j in component comp; a module element is the
    {index: value} row of its nonzero coefficients.
    """

    def __init__(self, ctx: SkewContext, ncomp: int, fbound: int):
        self.ctx = ctx
        self.ncomp = ncomp
        self.fbound = fbound
        self.dim = (fbound + 1) * ncomp * ctx.base.max_scaled
        # F^j moves t^e to t^(e * strides[j]), by the context's twist. One
        # past fbound, a shift is refused for F-degree, not for the stride.
        self.strides = [
            ctx.twist_endo((j,)).scale((1,))[0] for j in range(fbound + 2)
        ]

    def to_vec(self, elem: Sequence[SkewPoly]) -> fp_linalg.Row:
        """The coordinate row {index: value} of an n-tuple."""
        width = self.ctx.base.max_scaled
        v: fp_linalg.Row = {}
        for comp, poly in enumerate(elem):
            for (j,), c in poly.coeffs.items():
                if j > self.fbound:
                    raise KeyError(f"F-degree {j} above {self.fbound}")
                for (e,), coeff in c.terms.items():
                    v[((self.fbound - j) * self.ncomp + comp) * width + e] = coeff
        return v

    def span(self, rows: List[fp_linalg.Row]) -> fp_linalg.RowSpace:
        """The F_p span of coordinate rows, which it holds, not copies."""
        return fp_linalg.RowSpace(fp_linalg.FpMatrix(rows, self.dim, self.ctx.base.p))

    def low_cut(self, k: int) -> int:
        """First basis index of the F-degree <= k zone."""
        cut = (self.fbound - k) * self.ncomp * self.ctx.base.max_scaled
        return min(max(cut, 0), self.dim)

    def fdegrees(self, rows: Sequence[fp_linalg.Row]) -> List[int]:
        """The F-degree of each row; -1 for a zero row."""
        width = self.ncomp * self.ctx.base.max_scaled
        return [self.fbound - min(row) // width if row else -1 for row in rows]

    def shift(
        self, rows: Sequence[fp_linalg.Row], a: int, j: int
    ) -> List[fp_linalg.Row]:
        """The loss-free products t^a F^j * row, as coordinate rows.

        t^a F^j * t^e F^j' = t^(a + e r) F^(j' + j) for the stride
        r = strides[j] (p^j), so the product maps coordinate (comp, j', e)
        to (comp, j' + j, a + e r): index k goes to
        k - j * ncomp * max_scaled + a + e (r - 1). A row that would
        lose a nonzero coordinate to series truncation is dropped: silent
        truncation would identify distinct elements of the untruncated
        module. F-degree above fbound in any row is an error.
        """
        width = self.ctx.base.max_scaled
        drop = j * self.ncomp * width
        if any(min(row) < drop for row in rows if row):
            raise KeyError(f"F-degree above {self.fbound}")
        grow = self.strides[j] - 1
        # Exponents e < n land on a, a + r, ... inside the slab.
        n = len(range(a, width, grow + 1))
        return [
            {k - drop + a + k % width * grow: v for k, v in row.items()}
            for row in rows
            if all(k % width < n for k in row)
        ]


def _t_multiples(
    flat: ModuleFlat, rows: Sequence[fp_linalg.Row], j: int
) -> List[fp_linalg.Row]:
    """The loss-free products t^a F^j * row for a = 0, 1, ...; a row that
    loses a coordinate at some a loses one at every larger a."""
    out: List[fp_linalg.Row] = []
    for a in range(flat.ctx.base.max_scaled):
        prod = flat.shift(rows, a, j)
        if not prod:
            break
        out += prod
    return out


def module_span(
    flat: ModuleFlat, rows: Sequence[fp_linalg.Row], maxdeg: Optional[int] = None
) -> fp_linalg.RowSpace:
    """The visible left-module span of the coordinate rows: all loss-free
    products t^a F^j * g with F-degree at most maxdeg."""
    top = flat.fbound if maxdeg is None else maxdeg
    degs = flat.fdegrees(rows)
    vectors: List[fp_linalg.Row] = []
    for j in range(top + 1):
        kept = [row for row, d in zip(rows, degs) if 0 <= d <= top - j]
        vectors += _t_multiples(flat, kept, j)
    return flat.span(vectors)


def _f_multiples(flat: ModuleFlat, rows: Sequence[fp_linalg.Row]) -> fp_linalg.RowSpace:
    """The span of the loss-free products t^a F * m over the rows m."""
    return flat.span(_t_multiples(flat, rows, 1))


def _generated_span(
    generators: Sequence[Sequence[SkewPoly]], k: int, headroom: int
) -> Tuple[ModuleFlat, fp_linalg.RowSpace]:
    """Coordinates on a slab of F-degree k + gmax + 2 + headroom (gmax the
    largest generator degree), and the span of the generator tuples up to
    F-degree k + gmax + 2 in it. The context window must admit the slab."""
    if not generators:
        raise ValueError("need at least one generator tuple")
    ctx = generators[0][0].ctx
    gmax = max(
        max((poly.xdegree() for poly in g), default=0) for g in generators
    )
    span_deg = k + gmax + 2
    fbound = span_deg + headroom
    if ctx.window < fbound:
        raise ValueError(f"context window {ctx.window} < required {fbound}")
    flat = ModuleFlat(ctx, len(generators[0]), fbound)
    rows = [flat.to_vec(g) for g in generators]
    return flat, module_span(flat, rows, maxdeg=span_deg)


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
    # M is generated to degree B with two units of slack above k_max; JM
    # products then reach B + 1, which the slab and window must admit.
    flat, m_span = _generated_span(generators, k_max, 1)

    # J M = A F M: loss-free products t^a F * m over a spanning set of M.
    jm = _f_multiples(flat, m_span.low_part(0))

    report = FiltrationReport(k_checked=[], failures=[])
    for k in range(1, k_max + 1):
        cut = flat.low_cut(k)
        lhs = {c: row for c, row in jm.basis.items() if c >= cut}
        rhs = _f_multiples(flat, m_span.low_part(flat.low_cut(k - 1))).basis
        report.k_checked.append(k)
        if lhs != rhs:
            report.failures.append(k)
    return report


def mjm_degree_detect(
    generators: Sequence[Sequence[SkewPoly]], bound: int
) -> int:
    """Smallest d <= bound such that R * M^{<=d} covers every filtration
    piece M^{<=k} for k <= bound; bound+1 signals not detected."""
    flat, m_span = _generated_span(generators, bound, 0)
    # The pieces M^{<=k} are nested, so covering the top one covers them all.
    top = m_span.low_part(flat.low_cut(bound))
    for d in range(bound + 1):
        span = module_span(flat, m_span.low_part(flat.low_cut(d)))
        if all(span.contains(fp_linalg.FpMatrix(top, flat.dim, span.p))):
            return d
    return bound + 1
