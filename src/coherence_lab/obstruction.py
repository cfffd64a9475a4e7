"""The monomial obstruction to finite generation of the quotient relation
module.

Whether a monomial s^s_exp t^t_exp falls into one of the twisted product
ideals (s^(p^(a n_u))) (t^(p^(b n_v))), a + b >= 1, with |a|, |b| bounded
by a window, is exponent arithmetic on the 1/p^r grid: it compares base-p
floor logarithms, and no series or matrix is built. While n_u, n_v > 0,
s*t falls into none of them, and `not_fg_demonstration` certifies each
stage of the generator chain with that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .skew_series import PrecisionUnderflow


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
