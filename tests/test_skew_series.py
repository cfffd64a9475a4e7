import random

import pytest

from coherence_lab.skew_series import (
    FrobeniusEndo,
    PrecisionUnderflow,
    SeriesRing,
)


def test_one_times_x():
    ring = SeriesRing(5, ("s", "t"), trunc=6)
    x = ring.var("s")
    assert ring.one() * x == x


def test_freshmans_dream():
    for p in (2, 3, 5):
        ring = SeriesRing(p, ("s", "t"), trunc=p + 2)
        lhs = (ring.one() + ring.var("s")) ** p
        assert lhs == ring.one() + ring.var("s", p)


def test_truncation_kills_top_degree():
    ring = SeriesRing(2, ("s", "t"), trunc=8)
    assert (ring.var("s", 7) * ring.var("s")).is_zero()
    assert ring.var("s", 8).is_zero()


def test_apply_endo_examples():
    ring = SeriesRing(3, ("s", "t"), trunc=30)
    sigma_d = FrobeniusEndo(ring, {"s": 1})
    assert sigma_d.apply(ring.var("s")) == ring.var("s", 3)
    assert sigma_d.apply(ring.var("t")) == ring.var("t")
    sigma_e = FrobeniusEndo(ring, {"t": 1})
    assert sigma_e.apply(ring.var("s")) == ring.var("s")
    assert sigma_d.apply(ring.one()) == ring.one()


def test_apply_endo_precision_underflow():
    ring = SeriesRing(2, ("s", "t"), trunc=8, precision=1)
    halve = FrobeniusEndo(ring, {"s": -1})
    assert halve.apply(ring.var("s")) == ring.var("s", 0.5)
    assert halve.scale((2, 3)) == (1, 3)
    # The message the coordinate map of skew_poly raises too, through scale.
    with pytest.raises(PrecisionUnderflow, match=r"^exponent 1/p\^1 not divisible by p\^1$"):
        halve.apply(ring.var("s", 0.5))


def test_fractional_exponents_on_grid():
    ring = SeriesRing(2, ("s", "t"), trunc=4, precision=2)
    x = ring.var("s", 0.25)
    assert x * x == ring.var("s", 0.5)
    with pytest.raises(PrecisionUnderflow):
        ring.var("s", 1 / 3)


def test_endo_multiplicative():
    rng = random.Random(8)
    for p in (2, 3):
        ring = SeriesRing(p, ("s", "t"), trunc=10)
        sigma = FrobeniusEndo(ring, {"s": 1, "t": 1})
        for _ in range(100):
            a = ring.series(
                {
                    (rng.randint(0, 3), rng.randint(0, 3)): rng.randrange(p)
                    for _ in range(3)
                }
            )
            b = ring.series(
                {
                    (rng.randint(0, 3), rng.randint(0, 3)): rng.randrange(p)
                    for _ in range(3)
                }
            )
            assert sigma.apply(a * b) == sigma.apply(a) * sigma.apply(b)


def test_context_mismatch():
    from coherence_lab.skew_series import ContextMismatch

    a = SeriesRing(2, ("s", "t"), trunc=8)
    b = SeriesRing(2, ("s", "t"), trunc=9)
    with pytest.raises(ContextMismatch):
        a.one() + b.one()
