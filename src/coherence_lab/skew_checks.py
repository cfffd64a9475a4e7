"""Bounded verification of the two-variable relation module, the monomial
obstruction to finite generation, and the one-variable coherence machinery.

Everything here runs at explicit finite scale: series truncated at degree N,
twist exponents inside a window. Soundness statements (an element IS a
relation, a certificate reproduces its target) are exact. Completeness
statements are bound-relative and asserted only inside a safety margin,
because truncation creates spurious kernel vectors near the boundary.

Ring elements enter F_p coordinates once per generator: the S-generators
and the kernel pairs through `skew_poly._Coords`, one-variable module
elements through `ModuleFlat.to_vec`. After that the spans stay in
coordinates: a product X^xexp * mono * S_i is an index map on the
coordinates of S_i (`_Coords.shifted`), and a loss-free product t^a F^j one
on coordinate rows (`ModuleFlat.shift`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import fp_linalg
from .skew_series import FrobeniusEndo, PrecisionUnderflow, SeriesRing
from .skew_poly import (
    NOT_IN_IDEAL_AT_BOUND,
    SkewContext,
    SkewPoly,
    _assemble,
    _Batch,
    _Coords,
    _series_monomials,
    _Terms,
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
    (s, t, D - E). Completeness (bound-relative): the relation kernel on the
    interior coordinates (twist exponents at most window - margin, series
    degree at most trunc - trunc/4, no term of the s and t products lost to
    truncation) lies in the bounded left span of S. Only that interior
    kernel is computed; kernel_dim is its dimension.
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

    series_cap = (trunc - trunc // 4) * ring.scale
    growth_logs = (n_u, n_v)

    def interior(gi: int, xexp, mono) -> bool:
        # A kernel vector whose product with (s, t, D-E) loses a term to
        # series truncation is a boundary artifact, not a relation of the
        # untruncated ring; the twisted growth of the s and t components is
        # p^(a n_u) resp. p^(b n_v).
        deg = sum(mono)
        if deg > series_cap:
            return False
        return gi == 2 or (
            deg + p ** (xexp[gi] * growth_logs[gi]) * ring.scale < ring.max_scaled
        )

    bound = window - margin
    kernel = syzygy_bounded(gens3, (bound, bound), interior)
    report.kernel_dim = len(kernel)

    by_degree: Dict[int, List[PolyPair]] = {}
    for lx, ly, lz in kernel:
        deg = max(lx.xdegree(), ly.xdegree(), lz.xdegree() + 1)
        by_degree.setdefault(deg, []).append((lx, ly))

    coords = _Coords(ctx)
    flats = [coords.terms(pair) for _, pair in labelled]
    monos = np.array(_series_monomials(ring), dtype=np.int64)
    for deg in sorted(by_degree):
        pairs = by_degree[deg]
        mat, _ = _assemble(
            itertools.chain(
                _s_multiples(coords, flats, deg, window, monos),
                map(coords.column, pairs),
            )
        )
        n = mat.shape[1] - len(pairs)
        span_s = fp_linalg.RowSpace(mat[:, :n].T, p, mat.shape[0])
        inside = span_s.contains(mat[:, n:].T)
        report.interior_checked += len(pairs)
        for (lx, ly), ok in zip(pairs, inside):
            if not ok:
                report.completeness_exceptions.append(
                    f"degree {deg}: kernel vector ({lx!r}, {ly!r}) outside span(S)"
                )
    return report


def _s_multiples(
    coords: _Coords,
    flats: Sequence[_Terms],
    deg: int,
    window: int,
    monos: np.ndarray,
) -> Iterator[_Batch]:
    """The products X^xexp * mono * S_i of total twist degree deg whose twist
    exponents all stay within the window, one batch of columns per
    flattened S_i.

    The window is checked on the computed product, since a term can vanish
    by truncation.
    """
    for t in flats:
        d_i = int(t.x.sum(axis=1).max(initial=-1))
        if d_i < 0 or d_i > deg:
            continue
        k = deg - d_i
        a = np.arange(max(0, k - window), min(window, k) + 1)
        xs = np.repeat(np.column_stack([a, k - a]), len(monos), axis=0)
        codes, top = coords.shifted(t, xs, np.tile(monos, (len(a), 1)))
        yield codes[top <= window], t.coeff


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
    return _obstruction_witness(p, s_exp, t_exp, n_u, n_v, window, precision) is not None


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
    ks, kt = _floor_log(p, int(se)), _floor_log(p, int(te))
    for a in range(-window, window + 1):
        for b in range(max(1 - a, -window), window + 1):
            ea = a * n_u + r
            eb = b * n_v + r
            if ea < 0 or eb < 0:
                raise PrecisionUnderflow(
                    f"precision {r} cannot represent p^({a}*{n_u}) or p^({b}*{n_v})"
                )
            if ea <= ks and eb <= kt:
                return (a, b)
    return None


def _floor_log(p: int, n: int) -> int:
    """The largest k with p^k <= n, or -1: for e >= 0, n >= p^e iff e <= k."""
    k, pk = -1, 1
    while pk <= n:
        k, pk = k + 1, pk * p
    return k


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
    collapses at every stage. The witness does not depend on m: it is computed once.
    """
    pair = _obstruction_witness(p, 1, 1, n_u, n_v, window, precision)
    steps = [ChainStep(m, pair is None, pair) for m in range(1, n_max + 1)]
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
    degree filtration pieces.

    Index ((fbound - j) * ncomp + comp) * max_scaled + e holds the
    coefficient of t^e F^j in component comp.
    """

    def __init__(self, ctx: SkewContext, ncomp: int, fbound: int):
        self.ctx = ctx
        self.ncomp = ncomp
        self.fbound = fbound
        self.dim = (fbound + 1) * ncomp * ctx.base.max_scaled

    def to_vec(self, elem: Sequence[SkewPoly]) -> List[int]:
        width = self.ctx.base.max_scaled
        v = [0] * self.dim
        for comp, poly in enumerate(elem):
            for (j,), c in poly.coeffs.items():
                if j > self.fbound:
                    raise KeyError(f"F-degree {j} above {self.fbound}")
                for (e,), coeff in c.terms.items():
                    v[((self.fbound - j) * self.ncomp + comp) * width + e] = coeff
        return v

    def low_cut(self, k: int) -> int:
        """First basis index of the F-degree <= k zone."""
        cut = (self.fbound - k) * self.ncomp * self.ctx.base.max_scaled
        return min(max(cut, 0), self.dim)

    def fdegrees(self, rows: np.ndarray) -> np.ndarray:
        """The F-degree of each row; -1 for a zero row."""
        width = self.ncomp * self.ctx.base.max_scaled
        blocks = rows.reshape(len(rows), self.fbound + 1, width).any(axis=2)
        return np.where(blocks.any(axis=1), self.fbound - blocks.argmax(axis=1), -1)

    def shift(self, rows: np.ndarray, a: int, j: int) -> np.ndarray:
        """The loss-free products t^a F^j * row, as coordinate rows.

        t^a F^j * t^e F^j' = t^(a + e p^j) F^(j' + j), so the product maps
        coordinate (comp, j', e) to (comp, j' + j, a + e p^j). A row that
        would lose a nonzero coordinate to series truncation is dropped:
        silent truncation would identify distinct elements of the
        untruncated module. F-degree above fbound is an error.
        """
        width = self.ctx.base.max_scaled
        step = self.ctx.base.p**j
        blocks = np.asarray(rows, dtype=np.int64).reshape(
            -1, self.fbound + 1, self.ncomp, width
        )
        if blocks[:, :j].any():
            raise KeyError(f"F-degree above {self.fbound}")
        # Exponents e < n land on a, a + p^j, ... inside the slab.
        n = len(range(a, width, step))
        kept = blocks[~blocks[..., n:].any(axis=(1, 2, 3))]
        out = np.zeros_like(kept)
        out[:, : self.fbound + 1 - j, :, a:width:step] = kept[:, j:, :, :n]
        return out.reshape(-1, self.dim)


def _t_multiples(flat: ModuleFlat, rows: np.ndarray, j: int) -> np.ndarray:
    """The loss-free products t^a F^j * row for a = 0, 1, ...; a row that
    loses a coordinate at some a loses one at every larger a."""
    out = [np.zeros((0, flat.dim), dtype=np.int64)]
    for a in range(flat.ctx.base.max_scaled):
        prod = flat.shift(rows, a, j)
        if not len(prod):
            break
        out.append(prod)
    return np.concatenate(out)


def module_span(
    flat: ModuleFlat, rows: np.ndarray, maxdeg: Optional[int] = None
) -> fp_linalg.RowSpace:
    """The visible left-module span of the coordinate rows: all loss-free
    products t^a F^j * g with F-degree at most maxdeg."""
    top = flat.fbound if maxdeg is None else maxdeg
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, flat.dim)
    degs = flat.fdegrees(rows)
    vectors = [
        _t_multiples(flat, rows[(degs >= 0) & (degs <= top - j)], j)
        for j in range(top + 1)
    ]
    return fp_linalg.RowSpace(np.concatenate(vectors), flat.ctx.base.p, flat.dim)


def _f_multiples(flat: ModuleFlat, rows: np.ndarray) -> fp_linalg.RowSpace:
    """The span of the loss-free products t^a F * m over the rows m."""
    return fp_linalg.RowSpace(_t_multiples(flat, rows, 1), flat.ctx.base.p, flat.dim)


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

    m_span = module_span(flat, [flat.to_vec(g) for g in generators], maxdeg=bspan)

    # J M = A F M: loss-free products t^a F * m over a spanning set of M.
    jm = _f_multiples(flat, m_span.rows)

    report = FiltrationReport(k_checked=[], failures=[])
    for k in range(1, k_max + 1):
        lhs = jm.low_part(flat.low_cut(k))
        rhs = _f_multiples(flat, m_span.low_part(flat.low_cut(k - 1))).rows
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
    m_span = module_span(flat, [flat.to_vec(g) for g in generators], maxdeg=fbound)
    # The pieces M^{<=k} are nested, so covering the top one covers them all.
    top = m_span.low_part(flat.low_cut(bound))
    for d in range(bound + 1):
        if module_span(flat, m_span.low_part(flat.low_cut(d))).contains(top).all():
            return d
    return bound + 1
