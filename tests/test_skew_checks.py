import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import fp_reference
from coherence_lab import fp_linalg
from coherence_lab import obstruction as obs
from coherence_lab import skew_checks as sc
from coherence_lab.skew_poly import (
    SkewPoly,
    WindowExceeded,
    _Coords,
    _series_monomials,
    span_contains,
)
from coherence_lab.skew_series import PrecisionUnderflow, TruncSeries


def test_build_s_generators_shapes():
    ctx = sc.pair_context(3, 1, 1, trunc=16, window=5)
    ring = ctx.base
    labelled = dict(sc.build_S_generators(ctx, 1, 1, m_max=1))
    D, E = ctx.gen("D"), ctx.gen("E")
    s2E = SkewPoly.from_series(ctx, ring.var("s", 2)) * E
    assert labelled["S1[0]"] == (D - s2E, ctx.zero())
    t_, s_ = ring.var("t"), ring.var("s")
    assert labelled["S3[0]"] == (
        SkewPoly.from_series(ctx, t_),
        -SkewPoly.from_series(ctx, s_),
    )

    ctx2 = sc.pair_context(2, 1, 1, trunc=16, window=5)
    labelled2 = dict(sc.build_S_generators(ctx2, 1, 1, m_max=0))
    tD = SkewPoly.from_series(ctx2, ctx2.base.var("t")) * ctx2.gen("D")
    assert labelled2["S2[0]"] == (ctx2.zero(), ctx2.gen("E") - tD)


def test_verify_relations_default_passes():
    rep = sc.verify_relations(p=2, n_u=1, n_v=1, window=4, trunc=8, m_max=3)
    assert rep.soundness_ok
    assert rep.completeness_ok
    assert rep.kernel_dim == 222


def test_verify_relations_mid_size_pinned():
    rep = sc.verify_relations(p=3, n_u=1, n_v=1, window=5, trunc=12, m_max=4)
    assert [name for name, _ in rep.soundness] == (
        ["S1[0]", "S2[0]"] + [f"S3[{m}]" for m in range(5)]
    )
    assert all(ok for _, ok in rep.soundness)
    assert rep.kernel_dim == 458
    assert rep.ok


def _old_interior(p, n_u, n_v, ring, series_cap):
    """The closed-form loss test verify_relations applied before
    syzygy_bounded decided loss from its own products: X^x * m times s (t)
    keeps every term when |m| + p^(x n_u) (p^(x n_v)) * scale stays below
    the truncation, and times D - E always does."""
    growth_logs = (n_u, n_v)

    def interior(gi, xexp, mono):
        deg = sum(mono)
        if deg > series_cap:
            return False
        return gi == 2 or (
            deg + p ** (xexp[gi] * growth_logs[gi]) * ring.scale < ring.max_scaled
        )

    return interior


# (p, trunc, window, m_max, precision, n_u, n_v)
_INTERIOR_CASES = [
    (2, 8, 4, 3, 0, 1, 1),
    (2, 6, 3, 3, 1, 1, 1),
    (2, 11, 3, 6, 1, 1, 1),
    (3, 9, 3, 6, 1, 1, 1),
    (3, 12, 5, 4, 0, 1, 1),
    (3, 12, 5, 4, 0, 2, 3),
    (2, 16, 6, 5, 0, 1, 1),
    (5, 16, 6, 5, 0, 1, 1),
    (5, 16, 6, 5, 0, 16, 16),
]


@pytest.mark.parametrize("case", _INTERIOR_CASES, ids=lambda c: "-".join(map(str, c)))
def test_syzygy_columns_are_the_old_interior_keys(monkeypatch, case):
    # On every degree block of the relation check, the columns that
    # syzygy_bounded assembles are the products of the keys the old
    # closed-form predicate kept, in the same order. Distinct keys give
    # distinct products of s, t and D - E, so equal columns are equal keys.
    from coherence_lab import skew_poly

    p, trunc, window, m_max, precision, n_u, n_v = case
    ctx = sc.pair_context(p, n_u, n_v, trunc, max(window, m_max) + 2, precision)
    ring = ctx.base
    gens = [
        SkewPoly.from_series(ctx, ring.var("s")),
        SkewPoly.from_series(ctx, ring.var("t")),
        ctx.gen("D") - ctx.gen("E"),
    ]
    series_cap = (trunc - trunc // 4) * ring.scale
    xbounds = (window - 1, window - 1)
    interior = _old_interior(p, n_u, n_v, ring, series_cap)

    coords = skew_poly._Coords(ctx, 1)
    flats = [coords.terms((g,)) for g in gens]
    degrees = [g.xdegree() for g in gens]
    monos = _series_monomials(ring)
    want, total, kept = [], 0, 0
    for deg in range(sum(xbounds) + 2):
        keys = skew_poly._block_keys(degrees, xbounds, deg, monos)
        total += len(keys)
        keys = [key for key in keys if interior(*key)]
        kept += len(keys)
        if keys:
            want.append([row for row, _ in skew_poly._products(coords, flats, keys)])

    # Only the assembled columns matter here, so no kernel is computed.
    got = []
    monkeypatch.setattr(skew_poly, "_assemble", lambda columns, p: got.append(list(columns)))
    monkeypatch.setattr(skew_poly.fp_linalg, "kernel_basis", lambda mat: [])
    assert skew_poly.syzygy_bounded(gens, xbounds, series_cap) == {}
    assert got == want
    if case[:5] == (2, 8, 4, 3, 0):
        assert (kept, total) == (920, 1728)


def test_verify_relations_margin_zero_completeness_fails():
    # Negative control for the completeness arm: without the safety margin
    # a boundary kernel vector at the window edge falls outside span(S).
    rep = sc.verify_relations(
        p=2, n_u=1, n_v=1, window=2, trunc=8, m_max=1, margin=0
    )
    assert rep.soundness_ok
    assert rep.kernel_dim == 165
    assert len(rep.completeness_exceptions) == 1
    assert not rep.ok


def test_verify_relations_without_higher_s3_fails_pinned():
    # Negative control: with S3[0] only, the relation S3[1] = (tE, -sD) is
    # the first kernel vector outside span(S); 25 fail in all.
    rep = sc.verify_relations(p=2, n_u=1, n_v=1, window=4, trunc=8, m_max=0)
    assert rep.soundness_ok
    exceptions = rep.completeness_exceptions
    assert exceptions[0] == "degree 1: kernel vector ((t)E, (s)D) outside span(S)"
    degrees = [int(e.split(":")[0].split()[1]) for e in exceptions]
    assert [degrees.count(d) for d in (1, 2, 3, 4)] == [1, 5, 13, 6]
    assert len(degrees) == 25


def test_verify_relations_small_window():
    rep = sc.verify_relations(p=2, n_u=1, n_v=1, window=2, trunc=8, m_max=1)
    assert rep.ok


def test_verify_relations_p5_minimal():
    rep = sc.verify_relations(p=5, n_u=1, n_v=1, window=2, trunc=6, m_max=1)
    assert rep.ok


def test_verify_relations_corrupted_control():
    rep = sc.verify_relations(
        p=2, n_u=1, n_v=1, window=2, trunc=8, m_max=1, corrupt_s1=True
    )
    assert not rep.soundness_ok
    assert dict(rep.soundness)["S1[0]"] is False


def test_monomial_obstruction_examples():
    # s*t never falls into a twisted product ideal while n_u, n_v > 0.
    assert obs.monomial_obstruction(2, 1, 1, 1, 1, window=8) is False
    # s^p t^p does at (a, b) = (1, 1).
    assert obs.monomial_obstruction(2, 2, 2, 1, 1, window=4) is True
    # Degenerate control n_u = 0 collapses immediately.
    assert obs.monomial_obstruction(2, 1, 1, 0, 1, window=4) is True


def test_monomial_obstruction_grid():
    for n_u in (1, 2, 3):
        for n_v in (1, 2, 3):
            assert obs.monomial_obstruction(3, 1, 1, n_u, n_v, window=8) is False


def test_monomial_obstruction_precision_underflow():
    with pytest.raises(PrecisionUnderflow):
        obs.monomial_obstruction(2, 1, 1, 1, 1, window=4, precision=0)


def test_monomial_obstruction_fractional_exponents():
    # s^(1/p) t is divisible by the (a, b) = (-1, 2)-type ideals only when
    # the exponents clear the grid; this exercises scaled arithmetic.
    assert obs.monomial_obstruction(2, 0.5, 1, 1, 1, window=2) is False
    assert obs.monomial_obstruction(2, 2, 4, 1, 2, window=2) is True


def test_not_fg_demonstration():
    rep = obs.not_fg_demonstration(2, 1, 1, n_max=6, window=8)
    assert rep.all_strict and len(rep.steps) == 6
    rep = obs.not_fg_demonstration(3, 2, 1, n_max=4, window=8)
    assert rep.all_strict
    rep = obs.not_fg_demonstration(2, 0, 1, n_max=3, window=4)
    assert not rep.all_strict
    assert all(s.collapse_pair is not None for s in rep.steps)


def test_not_fg_demonstration_computes_the_witness_once(monkeypatch):
    calls = []
    witness = obs._obstruction_witness

    def counted(*args):
        calls.append(args)
        return witness(*args)

    monkeypatch.setattr(obs, "_obstruction_witness", counted)
    rep = obs.not_fg_demonstration(2, 1, 1, n_max=6, window=8)
    assert len(calls) == 1 and len(rep.steps) == 6 and rep.all_strict
    rep = obs.not_fg_demonstration(2, 0, 1, n_max=3, window=4)
    assert len(calls) == 2 and [s.stage for s in rep.steps] == [1, 2, 3]
    assert len({s.collapse_pair for s in rep.steps}) == 1


def _witness_by_powers(p, s_exp, t_exp, n_u, n_v, window, precision):
    """The witness search comparing against p^e computed outright."""
    r = window * max(n_u, n_v, 1) if precision is None else precision
    se, te = Fraction(s_exp) * p**r, Fraction(t_exp) * p**r
    if se.denominator != 1 or te.denominator != 1:
        raise PrecisionUnderflow(f"monomial exponents not on the 1/p^{r} grid")
    for a in range(-window, window + 1):
        for b in range(max(1 - a, -window), window + 1):
            ea, eb = a * n_u + r, b * n_v + r
            if ea < 0 or eb < 0:
                raise PrecisionUnderflow(
                    f"precision {r} cannot represent p^({a}*{n_u}) or p^({b}*{n_v})"
                )
            if se >= p**ea and te >= p**eb:
                return (a, b)
    return None


def _outcome(fn, *args):
    try:
        pair = fn(*args)
    except PrecisionUnderflow as e:
        return "underflow", str(e)
    return ("none", None) if pair is None else ("pair", pair)


def test_witness_exponent_comparison_matches_powers():
    # Same first pair, or the same PrecisionUnderflow, as comparing against
    # the powers themselves, on exponents at, just below and between powers.
    kinds = set()
    for p in (2, 3, 5):
        exps = [0, -1, 1, Fraction(1, 2), Fraction(3, 4), Fraction(1, p), p - 1, p**2, p**3 - 1]
        for window in (1, 2, 3):
            for n_u in (0, 1, 2):
                for n_v in (0, 1, 3):
                    for s_exp in exps:
                        for t_exp in exps:
                            for precision in (None, 0, 1, 4):
                                args = (p, s_exp, t_exp, n_u, n_v, window, precision)
                                got = _outcome(obs._obstruction_witness, *args)
                                assert got == _outcome(_witness_by_powers, *args), args
                                kinds.add(got[0])
    assert kinds == {"underflow", "none", "pair"}


def test_one_var_free_decomposition():
    for p, n in ((2, 8), (3, 9), (5, 16)):
        rep = sc.one_var_free_decomposition(p, n)
        assert rep.ok and rep.checked == n


def test_one_var_free_decomposition_examples():
    from coherence_lab.skew_series import FrobeniusEndo, SeriesRing

    ring = SeriesRing(2, ("t",), trunc=8)
    sigma = FrobeniusEndo(ring, {"t": 1})
    assert ring.var("t", 1) * sigma.apply(ring.var("t", 2)) == ring.var("t", 5)
    ring3 = SeriesRing(3, ("t",), trunc=9)
    sigma3 = FrobeniusEndo(ring3, {"t": 1})
    assert ring3.var("t", 1) * sigma3.apply(ring3.var("t", 2)) == ring3.var("t", 7)


def _one_var(p=2, trunc=8, window=9):
    ctx = sc.one_var_context(p, trunc, window)
    t = SkewPoly.from_series(ctx, ctx.base.var("t"))
    return ctx, t, ctx.gen("F")


def test_filtration_identity_cyclic():
    ctx, t, F = _one_var()
    rep = sc.filtration_identity_check([(t, F)], k_max=4)
    assert rep.ok and rep.k_checked == [1, 2, 3, 4]


def test_filtration_identity_full_ring():
    ctx, t, F = _one_var(window=8)
    rep = sc.filtration_identity_check([(ctx.one(),)], k_max=4)
    assert rep.ok


def test_filtration_identity_zero_module():
    ctx, t, F = _one_var()
    rep = sc.filtration_identity_check([(ctx.zero(), ctx.zero())], k_max=3)
    assert rep.ok


def test_mjm_degree_examples():
    ctx, t, F = _one_var(window=10)
    assert sc.mjm_degree_detect([(t,)], 4) == 0
    assert sc.mjm_degree_detect([(t * ctx.gen("F", 2),)], 4) == 2
    assert sc.mjm_degree_detect([(t,), (F,)], 4) == 1


def test_one_var_checks_refuse_at_the_window_bound():
    # The slab is k + gmax + 2 F-degrees, one more for the filtration check;
    # a window one short of it is refused with the slab in the message.
    for check, gens, need in (
        (sc.filtration_identity_check, lambda t, F: [(t, F)], 8),
        (sc.mjm_degree_detect, lambda t, F: [(t,)], 6),
    ):
        for window in (need - 1, need):
            ctx, t, F = _one_var(window=window)
            if window < need:
                with pytest.raises(ValueError) as err:
                    check(gens(t, F), 4)
                assert str(err.value) == f"context window {window} < required {need}"
            else:
                check(gens(t, F), 4)
        with pytest.raises(ValueError, match="^need at least one generator tuple$"):
            check([], 4)


def _random_one_var(rng, ctx, maxdeg, emax=None):
    """A random polynomial with F-degrees at most maxdeg and t-exponents
    below emax (default: the whole slab)."""
    ring = ctx.base
    coeffs = {}
    for j in range(maxdeg + 1):
        es = rng.sample(range(emax or ring.max_scaled), rng.randint(0, 3))
        coeffs[(j,)] = TruncSeries(ring, {(e,): rng.randrange(1, ring.p) for e in es})
    return SkewPoly(ctx, coeffs)


def _term_count(elem):
    return sum(len(c.terms) for poly in elem for c in poly.coeffs.values())


def _shifted_by_ring_product(coords, elem, a, j):
    """The reference for the one-variable products: the rows of
    t^a F^j * elem, by the truncated ring product. t^a F^j maps distinct
    terms to distinct terms, so the product is loss-free exactly when it
    keeps every term; a lossy one gives no row."""
    ctx = coords.ctx
    mu = SkewPoly(ctx, {(j,): TruncSeries(ctx.base, {(a,): 1})})
    prod = tuple(mu * poly for poly in elem)
    return [coords.column(prod)] if _term_count(prod) == _term_count(elem) else []


def _multiples_by_ring_product(coords, elem, j):
    """The reference rows of t^a F^j * elem for a = 0, 1, ... up to the
    first lossy product, after which every product is lossy."""
    trunc = coords.ctx.base.max_scaled
    by_ring = [_shifted_by_ring_product(coords, elem, a, j) for a in range(trunc)]
    n = len(list(itertools.takewhile(bool, by_ring)))
    assert not any(by_ring[n:])
    return [row for rows in by_ring[:n] for row in rows]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_module_flat_shift_matches_ring_product(p):
    # The index map of `_Coords.shifted`, with the row-length loss test of
    # the one-variable spans, gives the loss-free ring products t^a F^j * g
    # for a = 0, 1, ... (this replaced `ModuleFlat.shift`).
    ctx = sc.one_var_context(p, trunc=12, window=4)
    coords = _Coords(ctx, 2)
    rng = random.Random(p)
    seen = {True: 0, False: 0}
    for _ in range(300):
        emax = rng.choice([3, 12])
        elem = tuple(_random_one_var(rng, ctx, 2, emax) for _ in range(2))
        j = rng.randint(0, 2)
        want = _multiples_by_ring_product(coords, elem, j)
        a = rng.randrange(12 // emax * 3)
        seen[bool(_shifted_by_ring_product(coords, elem, a, j))] += 1
        assert sc._multiples(coords, coords.terms(elem), [j]) == want
    assert min(seen.values()) > 20


def test_module_flat_shift_stack_and_bounds():
    ctx = sc.one_var_context(3, trunc=9, window=3)
    coords = _Coords(ctx, 1)
    rng = random.Random(7)
    elems = [(_random_one_var(rng, ctx, 1),) for _ in range(40)]
    # A stack of elements gives each element's loss-free products in turn,
    # for every F^j that keeps the F-degree within top.
    stacked = sc._span_multiples(coords, [coords.terms(e) for e in elems], 2)
    want = [
        row
        for e in elems
        if _term_count(e)
        for j in range(3 - e[0].xdegree())
        for row in _multiples_by_ring_product(coords, e, j)
    ]
    assert stacked == want
    lossy = [not _shifted_by_ring_product(coords, e, 2, 1) for e in elems]
    assert 0 < sum(lossy) < len(elems)
    # An F-degree pushed above the window raises, also next to a term that
    # the same product loses to truncation, in either order.
    top = SkewPoly(ctx, {(3,): ctx.base.one()})
    low = SkewPoly.from_series(ctx, ctx.base.var("t", 8))
    assert sc._multiples(coords, coords.terms((low,)), [1]) == []
    for elem in ((top,), (low + top,), (top + low,)):
        with pytest.raises(WindowExceeded, match=r"^product exponent \(4,\) exceeds"):
            sc._multiples(coords, coords.terms(elem), [1])
    with pytest.raises(WindowExceeded):
        sc.module_span(coords, [coords.terms((low,)), coords.terms((top,))], 4)
    # first((k,)) is the code of the first F-degree <= k coordinate.
    for k in range(4):
        unit = (SkewPoly(ctx, {(k,): ctx.base.one()}),)
        assert coords.column(unit) == {coords.first((k,)): 1}
    assert coords.first((-1,)) == coords.dim and coords.first((3,)) == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_module_span_matches_ring_products(p):
    # Reference: every loss-free ring product t^a F^j * g with F-degree at
    # most maxdeg, flattened one by one.
    ctx = sc.one_var_context(p, trunc=10, window=5)
    coords = _Coords(ctx, 2)
    rng = random.Random(10 + p)
    for maxdeg in (5, 3):
        gens = [
            tuple(_random_one_var(rng, ctx, rng.randint(0, 2), 4) for _ in range(2))
            for _ in range(3)
        ] + [(ctx.zero(), ctx.zero())]
        vecs = []
        for g in gens:
            for j in range(maxdeg - max(poly.xdegree() for poly in g) + 1):
                for a in range(10):
                    mu = SkewPoly(ctx, {(j,): TruncSeries(ctx.base, {(a,): 1})})
                    prod = tuple(mu * poly for poly in g)
                    if _term_count(prod) == _term_count(g):
                        vecs.append(coords.column(prod))
        ref = fp_linalg.RowSpace(coords.matrix(vecs))
        got = sc.module_span(coords, [coords.terms(g) for g in gens], maxdeg)
        assert got.basis == ref.basis
        assert len(ref.basis) > 10


def test_ragged_generator_tuples_are_refused(monkeypatch):
    # Coordinates on n-tuples once wrote component n at F-degree j onto
    # component 0 at F-degree j - 1, so (0, tF) and (t,) aliased and the
    # ragged [(t,), (0, tF)] read degree 0 where the padded tuples read 1.
    # A tuple of another length than the first is refused before any work.
    from coherence_lab import skew_poly

    ctx, t, F = _one_var(window=8)
    zero = ctx.zero()
    message = "^tuple of length 2 in coordinates of 1$"
    assert sc.mjm_degree_detect([(t, zero), (zero, t * F)], 4) == 1
    with pytest.raises(ValueError, match=message):
        sc.mjm_degree_detect([(t,), (zero, t * F)], 4)

    def no_work(*args, **kwargs):
        raise AssertionError("work before the refusal")

    monkeypatch.setattr(sc, "module_span", no_work)
    monkeypatch.setattr(skew_poly, "_products", no_work)
    for check in (sc.mjm_degree_detect, sc.filtration_identity_check):
        with pytest.raises(ValueError, match=message):
            check([(t,), (zero, t * F)], 3)
    pctx = sc.pair_context(2, 1, 1, 8, 6)
    pairs = [pair for _, pair in sc.build_S_generators(pctx, 1, 1, 3)]
    s = SkewPoly.from_series(pctx, pctx.base.var("s"))
    for gens, queries in ((pairs + [(s,)], pairs), (pairs, pairs + [(s,)])):
        with pytest.raises(ValueError, match="^tuple of length 1 in coordinates of 2$"):
            span_contains(gens, 2, 4, queries)


def _dense_pair_span(multiples, deg, window, monos, p):
    """Reference: span(S) at one degree on the dense basis of all (component,
    twist exponent of degree deg inside the window, monomial) coordinates,
    and the dense row of a pair there (None for a pair with a term outside
    that basis)."""
    basis = [
        (comp, (a, deg - a), mono)
        for comp in (0, 1)
        for a in range(max(0, deg - window), min(window, deg) + 1)
        for mono in monos
    ]
    index = {b: i for i, b in enumerate(basis)}

    def dense(pair):
        v = [0] * len(basis)
        for comp, poly in enumerate(pair):
            for xexp, c in poly.coeffs.items():
                for mono, coeff in c.terms.items():
                    if (comp, xexp, mono) not in index:
                        return None
                    v[index[(comp, xexp, mono)]] = coeff
        return v

    vecs = np.array([dense(pair) for pair in multiples], dtype=np.int64)
    vecs = vecs.reshape(-1, len(basis))
    return fp_linalg.RowSpace(fp_reference.matrix(vecs, p)), dense


def _explicit_s_multiples(labelled, deg, window, monos):
    """Reference: the products X^xexp * mono * S_i of total twist degree deg
    with X^xexp inside the window, by ring multiplication, and whether every
    twist exponent of the computed product stays within the window."""
    for _, (sx, sy) in labelled:
        d_i = max(sx.xdegree(), sy.xdegree())
        if d_i < 0 or d_i > deg:
            continue
        k = deg - d_i
        for a in range(max(0, k - window), min(window, k) + 1):
            for mono in monos:
                mu = SkewPoly(sx.ctx, {(a, k - a): TruncSeries(sx.ctx.base, {mono: 1})})
                px, py = mu * sx, mu * sy
                yield (px, py), max(px.max_xexp() + py.max_xexp()) <= window


def _random_queries(rng, ctx, inside, deg, window, monos, n=10):
    """n random combinations of the pairs inside, and n of those pairs with
    one random term of twist degree deg inside the window added."""
    p = ctx.base.p
    xs = [(a, deg - a) for a in range(max(0, deg - window), min(window, deg) + 1)]
    combos, bumped = [], []
    for _ in range(n):
        acc = [ctx.zero(), ctx.zero()]
        for q in rng.sample(inside, min(3, len(inside))):
            c = ctx.base.monomial((0, 0), rng.randrange(1, p))
            acc = [a + SkewPoly.from_series(ctx, c) * b for a, b in zip(acc, q)]
        combos.append(tuple(acc))
        mono = TruncSeries(ctx.base, {rng.choice(monos): 1})
        bump = [SkewPoly(ctx, {rng.choice(xs): mono}), ctx.zero()]
        rng.shuffle(bump)
        bumped.append(tuple(a + b for a, b in zip(rng.choice(inside), bump)))
    return combos, bumped


@pytest.mark.parametrize("p,trunc,window,m_max", [(2, 8, 4, 3), (3, 6, 3, 2)])
def test_span_s_assembly_matches_dense_reference(p, trunc, window, m_max):
    # span_contains against membership in the dense span of the explicit
    # products inside the window. The queries are those products (all in
    # span(S)), random combinations of them (in), the products that leave
    # the window (out), and in-window products plus one random term
    # (either way, as the dense span decides).
    ctx = sc.pair_context(p, 1, 1, trunc, max(window, m_max) + 2)
    labelled = sc.build_S_generators(ctx, 1, 1, m_max)
    monos = _series_monomials(ctx.base)
    rng = random.Random(p)
    ranks, answers = [], []
    for deg in range(2 * window - 1):  # kernel degrees at margin 1
        products = list(_explicit_s_multiples(labelled, deg, window, monos))
        inside = [pair for pair, ok in products if ok]
        ref, dense = _dense_pair_span(inside, deg, window, monos, p)
        # A product with a term beyond the window is nonzero.
        outside = [pair for pair, ok in products if not ok]
        combos, bumped = _random_queries(rng, ctx, inside, deg, window, monos)
        want = [True] * len(inside + combos) + [False] * len(outside)
        want += ref.contains(fp_reference.matrix([dense(q) for q in bumped], p))
        queries = inside + combos + outside + bumped
        got = span_contains([pair for _, pair in labelled], deg, window, queries)
        assert got == want
        ranks.append(len(ref.basis))
        answers += want
    assert min(ranks[1:]) > 0
    assert True in answers and False in answers


def test_relation_check_peak_memory():
    # Traced allocation peaks of two precision-1 relation checks. At
    # (2,6,3,3) no elimination input is dense: about 0.8 MiB, 11.6 MiB when
    # each block was assembled as a dense matrix. The corrupted (3,10,3,6)
    # check holds no dense reduced basis: about 4.9 MiB, 151.9 MiB when its
    # span(S) bases were dense arrays. A peak repeats to the byte once a
    # first run has loaded what it imports lazily.
    import tracemalloc

    cases = [
        ((2, 1, 1, 3, 6, 3), {}, True, 8),
        ((3, 1, 1, 3, 10, 6), {"corrupt_s1": True}, False, 40),
    ]
    for args, kwargs, ok, mib in cases:
        sc.verify_relations(*args, precision=1, **kwargs)
        tracemalloc.start()
        try:
            report = sc.verify_relations(*args, precision=1, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok == ok
        assert peak < mib * 2**20, args


from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def _shift_cases(draw):
    """(p, trunc, window, elements, j): one to three n-tuples of random
    polynomials with t-exponents below a drawn bound, so that small elements
    survive large shifts. j runs one past the window and the F-degrees up
    to window - j or to the window, so products are loss-free, lossy, or
    above the window (WindowExceeded)."""
    p = draw(st.sampled_from([2, 3, 5]))
    trunc, window = draw(st.integers(2, 12)), draw(st.integers(0, 3))
    ncomp, j = draw(st.integers(1, 3)), draw(st.integers(0, window + 1))
    dmax = draw(st.sampled_from([max(window - j, 0), window]))
    emax = draw(st.integers(1, trunc))
    terms = st.lists(
        st.tuples(st.integers(0, dmax), st.integers(0, emax - 1), st.integers(1, p - 1)),
        max_size=4,
    )
    elem = st.lists(terms, min_size=ncomp, max_size=ncomp)
    return p, trunc, window, draw(st.lists(elem, min_size=1, max_size=3)), j


def _ring_or_error(call):
    try:
        return call()
    except WindowExceeded as e:
        return str(e)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_shift_cases())
def test_module_flat_shift_property(case):
    # Each element's loss-free products t^a F^j, a = 0, 1, ..., are the
    # ring's, in order; an F-degree pushed above the window raises the
    # ring's WindowExceeded, also next to a lossy term.
    p, trunc, window, elements, j = case
    ctx = sc.one_var_context(p, trunc, window)
    coords = _Coords(ctx, len(elements[0]))
    for elem in elements:
        polys = []
        for terms in elem:
            coeffs = {}
            for deg, e, c in terms:
                coeffs.setdefault((deg,), {})[(e,)] = c
            polys.append(SkewPoly(ctx, {x: TruncSeries(ctx.base, t) for x, t in coeffs.items()}))
        got = _ring_or_error(lambda: sc._multiples(coords, coords.terms(polys), [j]))
        assert got == _ring_or_error(lambda: _multiples_by_ring_product(coords, polys, j))


@st.composite
def _coordinate_cases(draw):
    """(context, tuples): a one- or two-variable context and one to six
    random tuples of one to three components over it. In one variable each
    tuple is F-homogeneous, of a drawn F-degree."""
    p = draw(st.sampled_from([2, 3, 5]))
    trunc, window = draw(st.integers(2, 9)), draw(st.integers(0, 4))
    if draw(st.booleans()):
        ctx = sc.one_var_context(p, trunc, window)
    else:
        nu, nv, precision = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(0, 1))
        ctx = sc.pair_context(p, nu, nv, trunc, window, precision)
    monos = _series_monomials(ctx.base)
    xexps = list(itertools.product(range(window + 1), repeat=len(ctx.twist_vars)))
    ncomp = draw(st.integers(1, 3))
    tuples = []
    for _ in range(draw(st.integers(1, 6))):
        xs = [draw(st.sampled_from(xexps))] if len(xexps[0]) == 1 else xexps
        term = st.tuples(st.sampled_from(xs), st.sampled_from(monos), st.integers(1, p - 1))
        polys = []
        for _ in range(ncomp):
            coeffs = {}
            for x, mono, c in draw(st.lists(term, max_size=4)):
                coeffs.setdefault(x, {})[mono] = c
            polys.append(SkewPoly(ctx, {x: TruncSeries(ctx.base, t) for x, t in coeffs.items()}))
        tuples.append(tuple(polys))
    return ctx, tuples


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_coordinate_cases())
def test_coordinates_decode_and_filtration_pieces(case):
    # A coordinate row decodes back into the terms of its tuple, in order.
    # In one variable, the basis rows of a span from the code first((k,))
    # on span its F-degree <= k piece: for F-homogeneous tuples, the span
    # of those of F-degree <= k.
    ctx, tuples = case
    coords = _Coords(ctx, len(tuples[0]))
    for elem in tuples:
        assert coords.decode(coords.column(elem)) == coords.terms(elem)
    if len(ctx.twist_vars) == 1:
        span = fp_linalg.RowSpace(coords.matrix([coords.column(e) for e in tuples]))
        for k in range(-1, ctx.window + 1):
            low = [e for e in tuples if max(poly.xdegree() for poly in e) <= k]
            want = fp_linalg.RowSpace(coords.matrix([coords.column(e) for e in low]))
            piece = span.low_part(coords.first((k,)))
            assert piece == list(want.basis.values())
