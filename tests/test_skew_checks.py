import pytest

from coherence_lab import skew_checks as sc
from coherence_lab.skew_poly import SkewPoly
from coherence_lab.skew_series import PrecisionUnderflow


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
