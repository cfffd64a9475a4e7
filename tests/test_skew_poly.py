import itertools
import random

import numpy as np
import pytest

import fp_reference

from coherence_lab.skew_checks import one_var_context, pair_context
from coherence_lab.skew_poly import (
    NOT_IN_IDEAL_AT_BOUND,
    SkewPoly,
    WindowExceeded,
    ideal_membership_bounded,
    syzygy_bounded,
)


def _pair(p=3, n_u=1, n_v=1, trunc=8, window=6):
    ctx = pair_context(p, n_u, n_v, trunc, window)
    ring = ctx.base
    return (
        ctx,
        SkewPoly.from_series(ctx, ring.var("s")),
        SkewPoly.from_series(ctx, ring.var("t")),
        ctx.gen("D"),
        ctx.gen("E"),
    )


def test_twist_rule_on_generators():
    ctx, s, t, D, E = _pair(p=3, n_u=1, n_v=1)
    assert D * s == SkewPoly.from_series(ctx, ctx.base.var("s", 3)) * D
    assert E * t == SkewPoly.from_series(ctx, ctx.base.var("t", 3)) * E
    assert E * s == s * E
    assert D * t == t * D


def test_d_minus_e_times_one():
    ctx, s, t, D, E = _pair()
    assert (D - E) * ctx.one() == D - E


def test_window_exceeded():
    ctx, s, t, D, E = _pair(window=2)
    with pytest.raises(WindowExceeded):
        _ = ctx.gen("D", 2) * D


def test_twist_law_powers():
    # F^k a = sigma^k(a) F^k in the one-variable ring.
    ctx = one_var_context(3, 27, window=4)
    ring = ctx.base
    a = SkewPoly.from_series(ctx, ring.var("t") + ring.one())
    for k in range(4):
        Fk = ctx.gen("F", k)
        sigma_k = ctx.twist_endo((k,))
        lhs = Fk * a
        rhs = SkewPoly.from_series(ctx, sigma_k.apply(ring.var("t") + ring.one())) * Fk
        assert lhs == rhs


def test_twist_law_two_variables():
    ctx, s, t, D, E = _pair(p=2, trunc=40, window=6)
    ring = ctx.base
    a = ring.var("s") + ring.var("t", 2) + ring.one()
    for j in range(3):
        for k in range(3):
            Xjk = ctx.gen("D", j) * ctx.gen("E", k)
            sigma = ctx.twist_endo((j, k))
            assert Xjk * SkewPoly.from_series(ctx, a) == SkewPoly.from_series(
                ctx, sigma.apply(a)
            ) * Xjk


def test_ring_axioms_random():
    rng = random.Random(9)
    for p in (2, 3):
        ctx, s, t, D, E = _pair(p=p, trunc=5, window=6)
        ring = ctx.base

        def rand_poly():
            out = ctx.zero()
            for _ in range(rng.randint(1, 3)):
                coeff = ring.series(
                    {
                        (rng.randint(0, 2), rng.randint(0, 2)): rng.randrange(p)
                        for _ in range(2)
                    }
                )
                out = out + SkewPoly(
                    ctx, {(rng.randint(0, 1), rng.randint(0, 1)): coeff}
                )
            return out

        for _ in range(250):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c


def test_membership_twisted_example():
    ctx, s, t, D, E = _pair(p=3, n_u=1)
    sigma_d = ctx.twist_endo((1, 0))
    elem = D * s - SkewPoly.from_series(ctx, sigma_d.apply(ctx.base.var("s"))) * E
    cert = ideal_membership_bounded(elem, [D - E], (1, 1))
    assert cert is not NOT_IN_IDEAL_AT_BOUND
    # The certificate is the twisted image s^3 itself.
    assert cert.coefficients[0] == SkewPoly.from_series(ctx, ctx.base.var("s", 3))


def test_membership_augmentation_proper():
    ctx, s, t, D, E = _pair()
    assert ideal_membership_bounded(ctx.one(), [s, t], (2, 2)) is NOT_IN_IDEAL_AT_BOUND


def test_membership_geometric_telescope():
    ctx, s, t, D, E = _pair(window=6)
    for m in (1, 2, 3, 4):
        elem = ctx.gen("D", m) - ctx.gen("E", m)
        assert ideal_membership_bounded(elem, [D - E], (m, m)) is not NOT_IN_IDEAL_AT_BOUND


def test_membership_demo_certificate_pinned():
    # The walkthrough certificate of demos/03: D^3 - E^3 = lambda * (D - E).
    ctx, s, t, D, E = _pair(p=2, trunc=8, window=6)
    cert = ideal_membership_bounded(ctx.gen("D", 3) - ctx.gen("E", 3), [D - E], (3, 3))
    lam = cert.coefficients[0]
    assert lam == ctx.gen("D", 2) + D * E + ctx.gen("E", 2)
    assert repr(lam) == "(1)E^2 + (1)DE + (1)D^2"


def _dense_membership(ctx, elem, gens, bounds):
    """Whole-slab membership by sympy over GF(p), independent of the
    degree blocking: the pivot solution (free variables 0) of the dense
    flattened system, as coefficient polynomials, or None."""
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    from coherence_lab.skew_poly import FlatSpace, _image_bounds
    from coherence_lab.skew_series import TruncSeries

    p = ctx.base.p
    domain = FlatSpace(ctx, bounds)
    image = FlatSpace(ctx, _image_bounds(gens, bounds))
    cols = [
        image.to_vec(SkewPoly(ctx, {x: TruncSeries(ctx.base, {mono: 1})}) * g)
        for g in gens
        for (x, mono) in domain.basis
    ]
    cols.append(image.to_vec(elem))
    K = GF(p)
    aug = DomainMatrix(
        [[K(c[i]) for c in cols] for i in range(image.dim)], (image.dim, len(cols)), K
    )
    red, pivots = aug.rref()
    n = len(cols) - 1
    if n in pivots:
        return None
    red_rows = red.to_list()
    sol = [0] * n
    for r, c in enumerate(pivots):
        sol[c] = int(red_rows[r][n]) % p
    return tuple(
        domain.from_vec(sol[i * domain.dim : (i + 1) * domain.dim])
        for i in range(len(gens))
    )


def _random_lambda(rng, ctx, bounds, degrees):
    """A random polynomial with terms of the given total twist degrees and
    twist exponents inside bounds (integer series exponents)."""
    from coherence_lab.skew_series import TruncSeries

    ring = ctx.base
    monos = [(a, b) for a in range(ring.trunc) for b in range(ring.trunc - a)]
    coeffs = {}
    for x in itertools.product(range(bounds[0] + 1), range(bounds[1] + 1)):
        if sum(x) in degrees:
            picks = [rng.choice(monos) for _ in range(rng.randint(0, 2))]
            coeffs[x] = TruncSeries(ring, {m: rng.randrange(1, ring.p) for m in picks})
    return SkewPoly(ctx, coeffs)


@pytest.mark.parametrize("p", [2, 3])
def test_membership_blocked_matches_dense_oracle(p):
    # Certificates must equal the whole-slab pivot solution. [s + t, s] has
    # free columns inside one generator's block, so it also pins the column
    # order within a block.
    ctx, s, t, D, E = _pair(p=p, trunc=3, window=4)
    ring = ctx.base
    bounds = (2, 2)
    rng = random.Random(40 + p)
    unit = SkewPoly.from_series(ctx, ring.var("s") + ring.one())
    for gens in ([D - E], [s, D - E], [s + t, s]):
        members, others = [ctx.zero()], [unit]
        for _ in range(6):
            lam = _random_lambda(rng, ctx, bounds, [rng.randint(0, 2)])
            members.append(lam * rng.choice(gens))
            mixed = ctx.zero()
            for g in gens:
                mixed = mixed + _random_lambda(rng, ctx, bounds, [0, 1, 2]) * g
            members.append(mixed)
            x = (rng.randint(0, 2), rng.randint(0, 2))
            others.append(mixed + SkewPoly(ctx, {x: ring.var("s", rng.randrange(2))}))
        for i, elem in enumerate(members + others):
            got = ideal_membership_bounded(elem, gens, bounds)
            want = _dense_membership(ctx, elem, gens, bounds)
            if want is None:
                assert got is NOT_IN_IDEAL_AT_BOUND
            else:
                assert got is not NOT_IN_IDEAL_AT_BOUND
                assert got.coefficients == want
            # Multiples of D - E have a vanishing sum of coefficients over the
            # twist exponents, so the unit and every bumped element are
            # outside its ideal; no ideal here contains the unit.
            if i < len(members):
                assert want is not None
            elif len(gens) == 1 or elem is unit:
                assert want is None


def test_membership_zero_element_and_generator_checks():
    ctx, s, t, D, E = _pair(trunc=6)
    cert = ideal_membership_bounded(ctx.zero(), [s, D - E], (1, 1))
    assert cert.coefficients == (ctx.zero(), ctx.zero())
    for gens in ([s, ctx.zero()], [D + s], []):
        with pytest.raises(ValueError):
            ideal_membership_bounded(D - E, gens, (1, 1))


def _syzygies(gens, bounds):
    """The relations syzygy_bounded finds on every series monomial of the
    ring, in the order it returns them."""
    kernel = syzygy_bounded(gens, bounds, gens[0].ctx.base.max_scaled)
    assert list(kernel) == sorted(kernel) and all(kernel.values())
    return [lams for vectors in kernel.values() for lams in vectors]


def test_syzygy_commutative_pair():
    from coherence_lab import fp_linalg
    from coherence_lab.skew_poly import FlatSpace

    ctx, s, t, D, E = _pair(trunc=6)
    kernel = _syzygies([s, t], (1, 1))
    assert kernel
    target = (t, -s)
    assert (target[0] * s + target[1] * t).is_zero()
    # (t, -s) lies in the span of the returned kernel basis.
    flat = FlatSpace(ctx, (1, 1))
    rows = [flat.to_vec(k[0]) + flat.to_vec(k[1]) for k in kernel]
    tvec = flat.to_vec(target[0]) + flat.to_vec(target[1])
    p = ctx.base.p
    base = fp_linalg.rank(fp_reference.matrix(rows, p))
    extended = fp_linalg.rank(fp_reference.matrix(rows + [tvec], p))
    assert base == extended


def _lift(wide, poly):
    from coherence_lab.skew_series import TruncSeries

    return SkewPoly(
        wide, {x: TruncSeries(wide.base, dict(c.terms)) for x, c in poly.coeffs.items()}
    )


def _dense_columns(ctx, gens, bounds):
    """The slab domain, the dense flattened matrix (one column per
    generator and domain basis element, independent of the assembly that
    syzygy_bounded blocks) and the loss-free columns.

    A column X^x * mono * g_i is loss-free when its product, taken in a
    context whose truncation no product here reaches, has every term below
    the truncation of ctx. A product term has degree |mono| + p^(x * log) * d
    with |mono|, d below the truncation and x <= window, so the wide context,
    truncated at trunc * (p^(window * log) + 1), loses none."""
    from coherence_lab.skew_poly import FlatSpace, SkewContext, _image_bounds
    from coherence_lab.skew_series import SeriesRing

    ring = ctx.base
    logs = [m for per_var in ctx.endo_logs.values() for m in per_var.values()]
    wide_trunc = ring.trunc * (ring.p ** (ctx.window * max(logs)) + 1)
    wide = SkewContext(
        SeriesRing(ring.p, ring.variables, wide_trunc, ring.precision),
        ctx.twist_vars,
        ctx.endo_logs,
        ctx.window,
    )
    domain = FlatSpace(ctx, bounds)
    image = FlatSpace(ctx, _image_bounds(gens, bounds))
    cols, loss_free = [], []
    for g in gens:
        for x, mono in domain.basis:
            cols.append(image.to_vec(_monomial(ctx, x, mono) * g))
            prod = _monomial(wide, x, mono) * _lift(wide, g)
            degrees = [sum(m) for c in prod.coeffs.values() for m in c.terms]
            loss_free.append(max(degrees) < ring.max_scaled)
    return domain, np.array(cols, dtype=np.int64).T, loss_free


def _null_space(mat, p):
    from coherence_lab import fp_linalg

    m = fp_reference.matrix(mat, p)
    return fp_reference.dense_rows(fp_linalg.kernel_basis(m), m.cols).tolist()


def test_syzygy_blockwise_matches_dense_kernel():
    # The degree-blocked kernel must span exactly the null space of the
    # dense flattened matrix restricted to the loss-free columns.
    from coherence_lab import fp_linalg

    ctx, s, t, D, E = _pair(p=2, trunc=4, window=4)
    gens = [s, t, D - E]
    bounds = (2, 2)
    kernel = _syzygies(gens, bounds)
    domain, mat, loss_free = _dense_columns(ctx, gens, bounds)
    kept = [c for c, ok in enumerate(loss_free) if ok]
    assert 0 < len(kept) < len(loss_free)
    dense = []
    for v in _null_space(mat[:, kept], 2):
        full = [0] * len(loss_free)
        for c, value in zip(kept, v):
            full[c] = value
        dense.append(full)

    flat_kernel = [
        domain.to_vec(k[0]) + domain.to_vec(k[1]) + domain.to_vec(k[2])
        for k in kernel
    ]
    assert len(flat_kernel) == len(dense)
    # The matrix is block diagonal, so each dense basis vector (one per free
    # column) lives in one block and is that block's vector for the column.
    assert sorted(flat_kernel) == sorted(dense)
    rank_blocked = fp_linalg.rank(fp_reference.matrix(flat_kernel, 2))
    rank_joint = fp_linalg.rank(fp_reference.matrix(flat_kernel + dense, 2))
    assert rank_blocked == len(flat_kernel) == rank_joint


@pytest.mark.parametrize("p", [2, 3])
def test_syzygy_cap_is_dense_kernel_on_loss_free_coordinates(p):
    # With I the loss-free columns of series degree at most the cap, the
    # kernel is K ∩ span(e_I) for K the null space of the whole dense
    # matrix, of dimension dim K - rank(K restricted to the coordinates
    # outside I).
    from coherence_lab import fp_linalg

    ctx, s, t, D, E = _pair(p=p, trunc=4, window=4)
    gens = [s, t, D - E]
    bounds = (2, 2)
    domain, mat, loss_free = _dense_columns(ctx, gens, bounds)
    dense = _null_space(mat, p)
    dense_arr = np.array(dense, dtype=np.int64)
    degree = [sum(mono) for _ in gens for _, mono in domain.basis]
    sizes = []
    for cap in range(-1, ctx.base.max_scaled + 1):
        chosen = {c for c, ok in enumerate(loss_free) if ok and degree[c] <= cap}
        off = [c for c in range(len(loss_free)) if c not in chosen]
        kernel = syzygy_bounded(gens, bounds, cap)
        assert list(kernel) == sorted(kernel) and all(kernel.values())
        flat = [
            sum((domain.to_vec(lam) for lam in k), [])
            for vectors in kernel.values()
            for k in vectors
        ]
        off_rank = fp_linalg.rank(fp_reference.matrix(dense_arr[:, off], p))
        assert len(flat) == len(dense) - off_rank
        assert all(v[i] == 0 for v in flat for i in off)
        if flat:
            assert fp_linalg.rank(fp_reference.matrix(flat, p)) == len(flat)
            joint = fp_linalg.rank(fp_reference.matrix(flat + dense, p))
            assert joint == len(dense)
        sizes.append(len(flat))
    assert sizes == sorted(sizes)
    assert sizes[0] == 0 < sizes[-1] < len(dense)


def test_syzygy_rejects_zero_or_inhomogeneous_generators():
    ctx, s, t, D, E = _pair(trunc=6)
    for gens in ([s, ctx.zero()], [s, D + s], []):
        with pytest.raises(ValueError):
            syzygy_bounded(gens, (1, 1), 5)


def test_syzygy_single_regular_element():
    ctx, s, t, D, E = _pair(trunc=6)
    assert syzygy_bounded([D - E], (3, 3), 5) == {}


def test_syzygy_repeated_generator():
    ctx, s, t, D, E = _pair(trunc=6)
    kernel = _syzygies([s, s], (0, 0))
    assert any(
        (k[0] + k[1]).is_zero() and not k[0].is_zero() for k in kernel
    )


# The index map of left multiplication by a monomial, against the explicit
# ring product.


def _random_tuple(rng, ctx, ncomp, nterms, maxdeg):
    """A tuple of random polynomials with twist exponents of total degree at
    most maxdeg (not homogeneous)."""
    from coherence_lab.skew_poly import _series_monomials
    from coherence_lab.skew_series import TruncSeries

    monos = _series_monomials(ctx.base)
    xexps = [
        x for x in itertools.product(range(maxdeg + 1), repeat=2) if sum(x) <= maxdeg
    ]
    out = []
    for _ in range(ncomp):
        coeffs = {}
        for x in rng.sample(xexps, rng.randint(1, min(nterms, len(xexps)))):
            picks = rng.sample(monos, rng.randint(1, 3))
            terms = {m: rng.randrange(1, ctx.base.p) for m in picks}
            coeffs[x] = TruncSeries(ctx.base, terms)
        out.append(SkewPoly(ctx, coeffs))
    return tuple(out)


def _monomial(ctx, x, mono):
    from coherence_lab.skew_series import TruncSeries

    return SkewPoly(ctx, {tuple(x): TruncSeries(ctx.base, {tuple(mono): 1})})


def _outcome(call):
    from coherence_lab.skew_series import PrecisionUnderflow

    try:
        return call()
    except (WindowExceeded, PrecisionUnderflow) as e:
        return type(e), str(e)


def _check_index_map(ctx, g, shifts):
    """The {code: value} row of every product the index map of the shifts
    makes of g, the matrix `_assemble` makes of those rows (densified here)
    and each product's largest twist exponent equal those of the explicit
    products mu * g; an exception is the first one the explicit products
    raise, with the same message. Returns (matrix, tops, rows)."""
    from coherence_lab.skew_poly import _assemble, _Coords

    coords = _Coords(ctx)
    xs = [x for x, _ in shifts]
    ms = [m for _, m in shifts]
    t = coords.terms(g)

    def result(cols, top):
        mat = fp_reference.dense(_assemble(cols, ctx.base.p))
        return mat.tolist(), top, cols

    def mapped():
        rows, top = zip(*coords.shifted(t, xs, ms))
        return result(list(rows), list(top))

    def explicit():
        prods = [tuple(_monomial(ctx, x, m) * poly for poly in g) for x, m in shifts]
        top = [max(sum((poly.max_xexp() for poly in prod), ())) for prod in prods]
        return result([coords.column(prod) for prod in prods], top)

    want = _outcome(explicit)
    assert _outcome(mapped) == want
    return want


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("precision", [0, 1])
def test_index_map_matches_ring_product(p, precision):
    from coherence_lab.skew_poly import _series_monomials

    rng = random.Random(100 * p + precision)
    trunc = 6 if precision == 0 else 3
    window = 4
    for n_u, n_v in ((1, 1), (2, 1), (1, 3)):
        ctx = pair_context(p, n_u, n_v, trunc, window, precision)
        monos = _series_monomials(ctx.base)
        for _ in range(3):
            g = _random_tuple(rng, ctx, 2, 3, 2)
            top = max(max(poly.max_xexp()) for poly in g)
            shifts = [
                (x, m)
                for x in itertools.product(range(window - top + 1), repeat=2)
                for m in monos
            ]
            mat, _, _ = _check_index_map(ctx, g, shifts)
            assert len(mat[0]) == len(shifts) and any(map(any, mat))
            # The truncation drops terms: some column has fewer entries
            # than g has terms.
            t_count = sum(len(c.terms) for poly in g for c in poly.coeffs.values())
            assert min(sum(map(bool, col)) for col in zip(*mat)) < t_count


@pytest.mark.parametrize("p", [2, 3, 5])
def test_index_map_scale_beyond_truncation(p):
    # --nu 16 --nv 16 at window 6: sigma^x scales by p^(16 a), far beyond
    # int64 at p = 5, a = 6; every nonzero exponent it scales truncates.
    ctx = pair_context(p, 16, 16, 16, 6)
    s = ctx.base.var("s")
    g = (SkewPoly.from_series(ctx, s + ctx.base.var("t", 2) + ctx.base.one()),)
    shifts = [((a, b), (1, 0)) for a in range(7) for b in range(7)]
    mat, top, _ = _check_index_map(ctx, g, shifts)
    col = [r[shifts.index(((6, 0), (1, 0)))] for r in mat]
    assert sum(map(bool, col)) == 2  # s^1 * sigma(1), s^1 * sigma(t^2) with b = 0
    assert top[-1] == 6


def test_index_map_window_and_precision_errors():
    from fractions import Fraction

    from coherence_lab.skew_series import PrecisionUnderflow, SeriesRing
    from coherence_lab.skew_poly import SkewContext, _series_monomials

    ctx = pair_context(3, 1, 1, 6, 4)
    g = (ctx.gen("D", 2), ctx.gen("E") * ctx.gen("D"))
    kind, _ = _check_index_map(ctx, g, [((1, 0), (0, 0)), ((3, 0), (1, 0))])
    assert kind is WindowExceeded
    # A negative endomorphism log: D divides s-exponents by p, which leaves
    # the 1/p grid on s^(1/p).
    ring = SeriesRing(3, ("s", "t"), 2, 1)
    neg = SkewContext(ring, ("D", "E"), {"D": {"s": -1}, "E": {"t": -1}}, 3)
    root = SkewPoly.from_series(neg, ring.var("s", Fraction(1, 3)))
    kind, _ = _check_index_map(neg, (root,), [((0, 1), (0, 0)), ((1, 0), (0, 0))])
    assert kind is PrecisionUnderflow
    assert _check_index_map(neg, (root * neg.gen("E"),), [((0, 2), (0, 0))])[0] == [[1]]
    # Over random tuples and shifts, in and out of the window, the first
    # failing term in product order decides the exception.
    rng = random.Random(7)
    monos = _series_monomials(ring)
    kinds = set()
    for _ in range(60):
        g = _random_tuple(rng, neg, 2, 3, 2)
        shifts = [
            ((rng.randint(0, 2), rng.randint(0, 2)), rng.choice(monos))
            for _ in range(rng.randint(1, 4))
        ]
        out = _check_index_map(neg, g, shifts)
        kinds.add(out[0] if isinstance(out[0], type) else list)
    assert kinds == {WindowExceeded, PrecisionUnderflow, list}


from hypothesis import given, settings, strategies as st  # noqa: E402


def _index_map_context(params):
    """("pair", p, n_u, n_v, trunc, window, precision) is a pair context;
    ("negative-log", p) is the context of
    test_index_map_window_and_precision_errors at p, where D divides
    s-exponents and E divides t-exponents by p on the 1/p grid."""
    from coherence_lab.skew_poly import SkewContext
    from coherence_lab.skew_series import SeriesRing

    kind, p, *rest = params
    if kind == "pair":
        return pair_context(p, *rest)
    ring = SeriesRing(p, ("s", "t"), 2, 1)
    return SkewContext(ring, ("D", "E"), {"D": {"s": -1}, "E": {"t": -1}}, 3)


def _check_index_case(params, g, shifts):
    """_check_index_map on a context and a tuple given as plain data: one
    {twist exponent: {monomial: coefficient}} per component."""
    from coherence_lab.skew_series import TruncSeries

    ctx = _index_map_context(params)
    polys = tuple(
        SkewPoly(ctx, {x: TruncSeries(ctx.base, terms) for x, terms in poly.items()})
        for poly in g
    )
    return _check_index_map(ctx, polys, shifts)


@st.composite
def _index_map_cases(draw):
    """A context, a tuple with terms inside the window, and shifts (twist
    exponent, monomial) whose products may leave the window."""
    from coherence_lab.skew_poly import _series_monomials

    p = draw(st.sampled_from([2, 3, 5]))
    if draw(st.booleans()):
        params = ("negative-log", p)
    else:
        precision = draw(st.sampled_from([0, 1]))
        logs, trunc = st.integers(0, 2), st.integers(1, 3 if precision else 6)
        params = ("pair", p, draw(logs), draw(logs), draw(trunc), draw(st.integers(1, 4)), precision)
    ctx = _index_map_context(params)
    monos = _series_monomials(ctx.base)
    w = ctx.window
    xexp = st.tuples(st.integers(0, w), st.integers(0, w))
    series = st.dictionaries(st.sampled_from(monos), st.integers(1, p - 1), min_size=1, max_size=3)
    g = draw(st.lists(st.dictionaries(xexp, series, max_size=3), min_size=1, max_size=2))
    shift = st.tuples(st.tuples(st.integers(0, w + 1), st.integers(0, w + 1)), st.sampled_from(monos))
    return params, g, draw(st.lists(shift, min_size=1, max_size=6))


# The inputs test_index_map_property shrinks to against broken variants of
# the map, one per id: keeping a term whose degree reaches the truncation,
# checking the grid before the window, taking the top over dropped terms,
# leaving an image unsorted by degree, a monomial code that collides, and
# building every image before the first product.
@pytest.mark.parametrize(
    "params,g,shifts",
    [
        (("pair", 2, 0, 0, 2, 1, 0), [{(0, 0): {(0, 0): 1, (0, 1): 1}}], [((0, 0), (0, 1))]),
        (("negative-log", 2), [{(0, 3): {(0, 1): 1}}], [((0, 1), (0, 0))]),
        (
            ("pair", 2, 0, 0, 3, 1, 1),
            [{(0, 0): {(0, 0): 1}, (0, 1): {(0, 5): 1}}],
            [((0, 0), (0, 1))],
        ),
        (("pair", 2, 0, 0, 2, 1, 0), [{(0, 0): {(0, 1): 1, (0, 0): 1}}], [((0, 0), (0, 1))]),
        (("pair", 2, 0, 0, 2, 1, 0), [{(0, 0): {(0, 0): 1}}], [((0, 0), (1, 0))]),
        (
            ("pair", 2, 0, 0, 2, 1, 0),
            [{(0, 1): {(0, 0): 1}}],
            [((0, 2), (0, 0)), ((0, 1), (0, 0))],
        ),
    ],
    ids=[
        "degree-at-truncation",
        "window-before-grid",
        "top-of-kept-terms",
        "image-by-degree",
        "monomial-code",
        "first-product-first",
    ],
)
def test_index_map_shrunk_cases(params, g, shifts):
    _check_index_case(params, g, shifts)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_index_map_cases())
def test_index_map_property(case):
    # Rows, tops and the first exception, type and message, against the
    # explicit ring products (asserted inside _check_index_map).
    _check_index_case(*case)


# The ring re-checks against a forged elimination: one coefficient of one
# kernel vector or of one solution changed on a column the block matrix
# reaches, so the vector no longer maps to what it claims.


def _forge(rows, mat):
    """Add 1 mod p to the first coefficient of rows on a nonzero column."""
    used = {c for r in mat.data for c in r}
    found = next(((row, c) for row in rows for c in row if c in used), None)
    if found is None:
        return
    row, c = found
    v = (row[c] + 1) % mat.p
    if v:
        row[c] = v
    else:
        del row[c]


def test_syzygy_recheck_rejects_a_forged_kernel_vector(monkeypatch):
    from coherence_lab import fp_linalg

    real = fp_linalg.kernel_basis

    def forged(mat):
        basis = real(mat)
        _forge(basis, mat)
        return basis

    monkeypatch.setattr(fp_linalg, "kernel_basis", forged)
    ctx, s, t, D, E = _pair(trunc=6)
    with pytest.raises(AssertionError, match="^syzygy basis vector failed substitution$"):
        syzygy_bounded([s, t], (1, 1), 5)


def test_membership_recheck_rejects_a_forged_certificate(monkeypatch):
    from coherence_lab import fp_linalg

    real = fp_linalg.solve

    def forged(mat, rhs):
        sol = real(mat, rhs)
        if sol is not None:
            _forge([sol], mat)
        return sol

    monkeypatch.setattr(fp_linalg, "solve", forged)
    ctx, s, t, D, E = _pair(p=3, n_u=1)
    elem = D * s - SkewPoly.from_series(ctx, ctx.base.var("s", 3)) * E
    with pytest.raises(
        AssertionError, match="^membership certificate failed re-multiplication$"
    ):
        ideal_membership_bounded(elem, [D - E], (1, 1))


# The multiply-accumulate kernel (`SkewPoly.__mul__`, `_combination`)
# against the pair-by-pair product it replaced: one TruncSeries per term
# product, one SkewPoly per pair product and per partial sum.


def _series_product(a, b):
    from coherence_lab.skew_series import TruncSeries

    a._check(b)
    p, bound = a.ring.p, a.ring.max_scaled
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = tuple(u + v for u, v in zip(m1, m2))
            if sum(m) >= bound:
                continue
            v = (out.get(m, 0) + c1 * c2) % p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return TruncSeries(a.ring, out)


def _pairwise_mul(a, b):
    a._check(b)
    ctx = a.ctx
    out = {}
    for xa, ca in a.coeffs.items():
        endo = ctx.twist_endo(xa)
        for xb, cb in b.coeffs.items():
            x = tuple(u + v for u, v in zip(xa, xb))
            if any(e > ctx.window for e in x):
                raise WindowExceeded(f"product exponent {x} exceeds window {ctx.window}")
            c = _series_product(ca, endo.apply(cb))
            if c.is_zero():
                continue
            s = out.get(x)
            v = c if s is None else s + c
            if v.is_zero():
                out.pop(x, None)
            else:
                out[x] = v
    return SkewPoly(ctx, out)


def _pairwise_combination(lams, generators):
    acc = generators[0].ctx.zero()
    for lam, g in zip(lams, generators):
        acc = acc + _pairwise_mul(lam, g)
    return acc


def _kernel_outcome(call):
    from coherence_lab.skew_series import ContextMismatch, PrecisionUnderflow

    try:
        return call()
    except (WindowExceeded, PrecisionUnderflow, ContextMismatch) as e:
        return type(e), str(e)


def _check_kernel_case(params, pairs, moved):
    """a * b for the first pair and `_combination` over all pairs against
    the pair-by-pair oracle, results or exception type and message. pairs
    holds (a, b) as {twist exponent: {monomial: coefficient}}; moved is
    None or (k, side), and side "a", "b" or "ab" of pair k is built in the
    context with the window one larger."""
    from coherence_lab.skew_poly import _combination
    from coherence_lab.skew_series import TruncSeries

    ctx = _index_map_context(params)
    wide = _index_map_context(params)
    wide.window += 1

    def poly(data, c):
        return SkewPoly(c, {x: TruncSeries(c.base, terms) for x, terms in data.items()})

    lams, gens = [], []
    for k, (a, b) in enumerate(pairs):
        side = moved[1] if moved and moved[0] == k else ""
        lams.append(poly(a, wide if "a" in side else ctx))
        gens.append(poly(b, wide if "b" in side else ctx))
    want = _kernel_outcome(lambda: _pairwise_mul(lams[0], gens[0]))
    assert _kernel_outcome(lambda: lams[0] * gens[0]) == want
    want = _kernel_outcome(lambda: _pairwise_combination(lams, gens))
    assert _kernel_outcome(lambda: _combination(lams, gens)) == want
    return want


@st.composite
def _kernel_cases(draw):
    """A context, one to three pairs of polynomials with twist exponents up
    to a top drawn up to one past the window, and maybe one pair moved to
    another context."""
    from coherence_lab.skew_poly import _series_monomials

    p = draw(st.sampled_from([2, 3, 5]))
    if draw(st.sampled_from([False, False, True])):
        params = ("negative-log", p)
    else:
        precision = draw(st.sampled_from([0, 1]))
        logs, trunc = st.integers(0, 2), st.integers(1, 3 if precision else 8)
        params = ("pair", p, draw(logs), draw(logs), draw(trunc), draw(st.integers(0, 4)), precision)
    ctx = _index_map_context(params)
    monos = _series_monomials(ctx.base)
    top = draw(st.integers(0, ctx.window + 1))
    xexp = st.tuples(st.integers(0, top), st.integers(0, top))
    series = st.lists(st.tuples(st.sampled_from(monos), st.integers(1, p - 1)), min_size=1, max_size=3)
    poly = st.lists(st.tuples(xexp, series.map(dict)), min_size=1, max_size=3).map(dict)
    pairs = draw(st.lists(st.tuples(poly, poly), min_size=1, max_size=3))
    moved = None
    if draw(st.integers(0, 3)) == 0:
        moved = (draw(st.integers(0, len(pairs) - 1)), draw(st.sampled_from(["ab", "a", "b"])))
    return params, pairs, moved


# The inputs test_kernel_property shrinks to against broken variants of the
# kernel, one per id: twisting by the right factor's exponent, twisting
# before the window check, keeping a term whose degree reaches the
# truncation, dropping zeros without reducing mod p, overwriting instead of
# adding a term product, refusing an exponent equal to the window. The
# property never reached the last id's variant, the context check against
# ctx before a pair's products, so that case is written by hand: the moved
# pair fails its window before the mismatch is seen.
@pytest.mark.parametrize(
    "params,pairs,moved",
    [
        (
            ("negative-log", 2),
            [({(0, 0): {(0, 0): 1}}, {(0, 1): {(0, 1): 1}})],
            (0, "ab"),
        ),
        (
            ("negative-log", 2),
            [
                ({(0, 0): {(0, 0): 1}}, {(0, 0): {(0, 0): 1}}),
                ({(2, 0): {(0, 0): 1}}, {(2, 0): {(1, 0): 1}}),
            ],
            None,
        ),
        (("pair", 2, 0, 0, 8, 0, 0), [({(0, 0): {(0, 1): 1}}, {(0, 0): {(0, 7): 1}})], (0, "ab")),
        (("pair", 2, 0, 0, 1, 0, 0), [({(0, 0): {(0, 0): 1}}, {(0, 0): {(0, 0): 1}})] * 2, None),
        (
            ("negative-log", 2),
            [({(0, 0): {(0, 0): 1, (0, 1): 1}}, {(0, 0): {(0, 0): 1, (0, 1): 1}})],
            (0, "ab"),
        ),
        (("pair", 2, 0, 0, 2, 0, 0), [({(0, 0): {(0, 0): 1}}, {(0, 0): {(0, 0): 1}})], None),
        (
            ("pair", 2, 0, 0, 2, 1, 0),
            [
                ({(0, 0): {(0, 0): 1}}, {(0, 0): {(0, 0): 1}}),
                ({(2, 0): {(0, 0): 1}}, {(1, 0): {(0, 0): 1}}),
            ],
            (1, "ab"),
        ),
    ],
    ids=[
        "twist-by-left-exponent",
        "window-before-twist",
        "truncation-bound",
        "reduce-mod-p",
        "add-term-products",
        "window-inclusive",
        "context-after-products",
    ],
)
def test_kernel_shrunk_cases(params, pairs, moved):
    _check_kernel_case(params, pairs, moved)


@settings(derandomize=True, database=None, max_examples=250, deadline=None)
@given(_kernel_cases())
def test_kernel_property(case):
    # Results, or the first exception with its message, against the
    # pair-by-pair products and sums (asserted inside _check_kernel_case).
    _check_kernel_case(*case)
