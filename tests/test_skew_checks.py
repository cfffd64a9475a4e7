import random
from fractions import Fraction

import numpy as np
import pytest

from coherence_lab import fp_linalg
from coherence_lab import skew_checks as sc
from coherence_lab.skew_poly import SkewPoly, _assemble, _Coords, _series_monomials
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
    assert rep.interior_checked == 222
    assert rep.kernel_dim == rep.interior_checked


def test_verify_relations_mid_size_pinned():
    rep = sc.verify_relations(p=3, n_u=1, n_v=1, window=5, trunc=12, m_max=4)
    assert [name for name, _ in rep.soundness] == (
        ["S1[0]", "S2[0]"] + [f"S3[{m}]" for m in range(5)]
    )
    assert all(ok for _, ok in rep.soundness)
    assert rep.interior_checked == 458
    assert rep.ok


def test_verify_relations_margin_zero_completeness_fails():
    # Negative control for the completeness arm: without the safety margin
    # a boundary kernel vector at the window edge falls outside span(S).
    rep = sc.verify_relations(
        p=2, n_u=1, n_v=1, window=2, trunc=8, m_max=1, margin=0
    )
    assert rep.soundness_ok
    assert rep.interior_checked == 165
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
    assert sc.monomial_obstruction(2, 1, 1, 1, 1, window=8) is False
    # s^p t^p does at (a, b) = (1, 1).
    assert sc.monomial_obstruction(2, 2, 2, 1, 1, window=4) is True
    # Degenerate control n_u = 0 collapses immediately.
    assert sc.monomial_obstruction(2, 1, 1, 0, 1, window=4) is True


def test_monomial_obstruction_grid():
    for n_u in (1, 2, 3):
        for n_v in (1, 2, 3):
            assert sc.monomial_obstruction(3, 1, 1, n_u, n_v, window=8) is False


def test_monomial_obstruction_precision_underflow():
    with pytest.raises(PrecisionUnderflow):
        sc.monomial_obstruction(2, 1, 1, 1, 1, window=4, precision=0)


def test_monomial_obstruction_fractional_exponents():
    # s^(1/p) t is divisible by the (a, b) = (-1, 2)-type ideals only when
    # the exponents clear the grid; this exercises scaled arithmetic.
    assert sc.monomial_obstruction(2, 0.5, 1, 1, 1, window=2) is False
    assert sc.monomial_obstruction(2, 2, 4, 1, 2, window=2) is True


def test_not_fg_demonstration():
    rep = sc.not_fg_demonstration(2, 1, 1, n_max=6, window=8)
    assert rep.all_strict and len(rep.steps) == 6
    rep = sc.not_fg_demonstration(3, 2, 1, n_max=4, window=8)
    assert rep.all_strict
    rep = sc.not_fg_demonstration(2, 0, 1, n_max=3, window=4)
    assert not rep.all_strict
    assert all(s.collapse_pair is not None for s in rep.steps)


def test_not_fg_demonstration_computes_the_witness_once(monkeypatch):
    calls = []
    witness = sc._obstruction_witness

    def counted(*args):
        calls.append(args)
        return witness(*args)

    monkeypatch.setattr(sc, "_obstruction_witness", counted)
    rep = sc.not_fg_demonstration(2, 1, 1, n_max=6, window=8)
    assert len(calls) == 1 and len(rep.steps) == 6 and rep.all_strict
    rep = sc.not_fg_demonstration(2, 0, 1, n_max=3, window=4)
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
                                got = _outcome(sc._obstruction_witness, *args)
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


@pytest.mark.parametrize("p", [2, 3, 5])
def test_module_flat_shift_matches_ring_product(p):
    # t^a F^j maps distinct terms to distinct terms, so the truncated ring
    # product is loss-free exactly when it keeps every term.
    ctx = sc.one_var_context(p, trunc=12, window=4)
    flat = sc.ModuleFlat(ctx, ncomp=2, fbound=4)
    rng = random.Random(p)
    seen = {True: 0, False: 0}
    for _ in range(300):
        emax = rng.choice([3, 12])
        elem = tuple(_random_one_var(rng, ctx, 2, emax) for _ in range(2))
        a, j = rng.randrange(12 // emax * 3), rng.randint(0, 2)
        mu = SkewPoly(ctx, {(j,): TruncSeries(ctx.base, {(a,): 1})})
        prod = tuple(mu * poly for poly in elem)
        got = flat.shift(np.array([flat.to_vec(elem)]), a, j)
        lossfree = _term_count(prod) == _term_count(elem)
        seen[lossfree] += 1
        assert got.tolist() == ([flat.to_vec(prod)] if lossfree else [])
    assert min(seen.values()) > 20


def test_module_flat_shift_stack_and_bounds():
    ctx = sc.one_var_context(3, trunc=9, window=3)
    flat = sc.ModuleFlat(ctx, ncomp=1, fbound=3)
    rng = random.Random(7)
    elems = [(_random_one_var(rng, ctx, 1),) for _ in range(40)]
    rows = np.array([flat.to_vec(e) for e in elems])
    stacked = flat.shift(rows, 2, 1)
    one_by_one = [r for row in rows for r in flat.shift(row, 2, 1).tolist()]
    assert stacked.tolist() == one_by_one
    top = (SkewPoly(ctx, {(3,): ctx.base.one()}),)
    with pytest.raises(KeyError):
        flat.shift(np.array([flat.to_vec(top)]), 0, 1)
    # low_cut(k) is the index of the first F-degree <= k coordinate.
    for k in range(4):
        unit = (SkewPoly(ctx, {(k,): ctx.base.one()}),)
        assert flat.to_vec(unit).index(1) == flat.low_cut(k)
    assert flat.low_cut(-1) == flat.dim and flat.low_cut(5) == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_module_span_matches_ring_products(p):
    # Reference: every loss-free ring product t^a F^j * g with F-degree at
    # most maxdeg, flattened one by one.
    ctx = sc.one_var_context(p, trunc=10, window=5)
    flat = sc.ModuleFlat(ctx, ncomp=2, fbound=5)
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
                        vecs.append(flat.to_vec(prod))
        ref = fp_linalg.RowSpace(vecs, p, flat.dim)
        got = sc.module_span(flat, [flat.to_vec(g) for g in gens], maxdeg)
        assert np.array_equal(got.rows, ref.rows)
        assert len(ref.rows) > 10


def _dense_pair_span(multiples, deg, window, monos, p):
    """Reference: span(S) at one degree on the dense basis of all (component,
    twist exponent of degree deg inside the window, monomial) coordinates."""
    basis = [
        (comp, (a, deg - a), mono)
        for comp in (0, 1)
        for a in range(max(0, deg - window), min(window, deg) + 1)
        for mono in monos
    ]
    index = {b: i for i, b in enumerate(basis)}
    vecs = []
    for pair in multiples:
        v = [0] * len(basis)
        for comp, poly in enumerate(pair):
            for xexp, c in poly.coeffs.items():
                for mono, coeff in c.terms.items():
                    v[index[(comp, xexp, mono)]] = coeff
        vecs.append(v)
    return fp_linalg.RowSpace(vecs, p, len(basis)), index


def _explicit_s_multiples(labelled, deg, window, monos):
    """Reference: the products X^xexp * mono * S_i of total twist degree deg
    by ring multiplication, kept when every twist exponent of the computed
    product stays within the window."""
    for _, (sx, sy) in labelled:
        d_i = max(sx.xdegree(), sy.xdegree())
        if d_i < 0 or d_i > deg:
            continue
        k = deg - d_i
        for a in range(max(0, k - window), min(window, k) + 1):
            for mono in monos:
                mu = SkewPoly(sx.ctx, {(a, k - a): TruncSeries(sx.ctx.base, {mono: 1})})
                px, py = mu * sx, mu * sy
                if max(px.max_xexp() + py.max_xexp()) <= window:
                    yield px, py


def _code_keys(coords, pairs):
    """Coordinate code -> (component, twist exponent, monomial) over the
    terms of the pairs."""
    out = {}
    for pair in pairs:
        t = coords.terms(pair)
        for code, comp, x, mono in zip(t.code, t.comp, t.x, t.mono):
            out[int(code)] = (int(comp), tuple(x.tolist()), tuple(mono.tolist()))
    return out


@pytest.mark.parametrize("p,trunc,window,m_max", [(2, 8, 4, 3), (3, 6, 3, 2)])
def test_span_s_assembly_matches_dense_reference(p, trunc, window, m_max):
    ctx = sc.pair_context(p, 1, 1, trunc, max(window, m_max) + 2)
    labelled = sc.build_S_generators(ctx, 1, 1, m_max)
    monos = _series_monomials(ctx.base)
    coords = _Coords(ctx)
    flats = [coords.terms(pair) for _, pair in labelled]
    ranks = []
    for deg in range(2 * window - 1):  # kernel degrees at margin 1
        multiples = list(_explicit_s_multiples(labelled, deg, window, monos))
        ref, index = _dense_pair_span(multiples, deg, window, monos, p)
        mat, codes = _assemble(
            sc._s_multiples(coords, flats, deg, window, np.array(monos))
        )
        keys = _code_keys(coords, multiples)
        rows = fp_linalg.RowSpace(mat.T, p, len(codes)).rows
        spread = np.zeros((len(rows), len(index)), dtype=np.int64)
        spread[:, [index[keys[c]] for c in codes.tolist()]] = rows
        assert np.array_equal(fp_linalg.RowSpace(spread, p, len(index)).rows, ref.rows)
        ranks.append(len(ref.rows))
    assert min(ranks[1:]) > 0
