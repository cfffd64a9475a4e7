"""Truncated power series over F_p with p-power-fractional exponents.

Exponents live on the grid (1/p^r) Z_{>=0} for a fixed precision r and are
stored as integers in scaled units (ordinary exponent times p^r). Monomials
whose total degree reaches the truncation bound N (in ordinary units) are
dropped, so every series is a finite association of monomials to nonzero
coefficients and all arithmetic is exact.

`FrobeniusEndo` holds the package's one twist rule, `scale`: `apply` runs
it over a series, and the coordinate map of `skew_poly` over each term.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple

from .echelon import is_prime

Monomial = Tuple[int, ...]  # scaled exponents, one per variable


class ContextMismatch(ValueError):
    pass


class PrecisionUnderflow(ValueError):
    pass


class SeriesRing:
    """Context object: prime, variable names, truncation and precision."""

    def __init__(
        self,
        p: int,
        variables: Tuple[str, ...] = ("s", "t"),
        trunc: int = 8,
        precision: int = 0,
    ):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if trunc < 1:
            raise ValueError("truncation bound must be >= 1")
        if precision < 0:
            raise ValueError("precision must be >= 0")
        self.p = p
        self.variables = tuple(variables)
        self.trunc = trunc
        self.precision = precision
        self.scale = p**precision
        self.max_scaled = trunc * self.scale

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SeriesRing)
            and (other.p, other.variables, other.trunc, other.precision)
            == (self.p, self.variables, self.trunc, self.precision)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.variables, self.trunc, self.precision))

    def __repr__(self) -> str:
        vs = ", ".join(self.variables)
        return f"SeriesRing(F_{self.p}[[{vs}]], N={self.trunc}, r={self.precision})"

    def zero(self) -> "TruncSeries":
        return TruncSeries(self, {})

    def one(self) -> "TruncSeries":
        return self.monomial((0,) * len(self.variables))

    def monomial(self, exps: Monomial, coeff: int = 1) -> "TruncSeries":
        """Series c * prod(x_v^(e_v/p^r)) from scaled exponents e_v."""
        if len(exps) != len(self.variables):
            raise ValueError("wrong number of exponents")
        if any(e < 0 for e in exps):
            raise ValueError("negative exponents are not representable")
        c = coeff % self.p
        if c == 0 or sum(exps) >= self.max_scaled:
            return self.zero()
        return TruncSeries(self, {tuple(exps): c})

    def var(self, name: str, power=1, coeff: int = 1) -> "TruncSeries":
        """The monomial x^power (ordinary units; power may be a Fraction)."""
        i = self.variables.index(name)
        scaled = Fraction(power) * self.scale
        if scaled.denominator != 1:
            raise PrecisionUnderflow(
                f"exponent {power} not on the 1/p^{self.precision} grid"
            )
        exps = [0] * len(self.variables)
        exps[i] = int(scaled)
        return self.monomial(tuple(exps), coeff)

    def series(self, terms: Mapping[Monomial, int]) -> "TruncSeries":
        out = self.zero()
        for mono, c in terms.items():
            out = out + self.monomial(mono, c)
        return out

    def mul_into(
        self, out: Dict[Monomial, int], a: "TruncSeries", b: "TruncSeries"
    ) -> None:
        """Add the truncated product a * b into out, {monomial: coefficient},
        coefficients unreduced: the one series product rule."""
        a._check(b)
        bound = self.max_scaled
        for m1, c1 in a.terms.items():
            room = bound - sum(m1)
            for m2, c2 in b.terms.items():
                if sum(m2) < room:
                    m = tuple(map(operator.add, m1, m2))
                    out[m] = out.get(m, 0) + c1 * c2

    def reduced(self, terms: Mapping[Monomial, int]) -> "TruncSeries":
        """The series of terms with coefficients reduced mod p, zeros dropped."""
        p = self.p
        return TruncSeries(self, {m: v for m, c in terms.items() if (v := c % p)})


class TruncSeries:
    """A finite sum of monomials with nonzero coefficients in F_p."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: SeriesRing, terms: Dict[Monomial, int]):
        self.ring = ring
        self.terms = terms

    def _check(self, other: "TruncSeries") -> None:
        # Series of one computation share their ring object, so identity
        # settles the common case before the field comparison.
        if self.ring is not other.ring and self.ring != other.ring:
            raise ContextMismatch(f"{self.ring} vs {other.ring}")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        p = self.ring.p
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = (out.get(m, 0) + c) % p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return TruncSeries(self.ring, out)

    def __neg__(self) -> "TruncSeries":
        p = self.ring.p
        return TruncSeries(self.ring, {m: (-c) % p for m, c in self.terms.items()})

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        out: Dict[Monomial, int] = {}
        self.ring.mul_into(out, self, other)
        return self.ring.reduced(out)

    def __pow__(self, n: int) -> "TruncSeries":
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncSeries)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self) -> int:
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def sorted_terms(self) -> Iterable[Tuple[Monomial, int]]:
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        names = self.ring.variables
        scale = self.ring.scale
        parts = []
        for mono, c in self.sorted_terms():
            factors = [str(c)] if c != 1 or not any(mono) else ([] if any(mono) else ["1"])
            for name, e in zip(names, mono):
                if e:
                    q = Fraction(e, scale)
                    factors.append(f"{name}^{q}" if q != 1 else name)
            parts.append("*".join(factors) if factors else "1")
        return " + ".join(parts)


class FrobeniusEndo:
    """Exponent-scaling endomorphism x_v -> x_v^(p^log_v), coefficientwise.

    Logs may be negative down to -precision; an image exponent that leaves
    the representable grid raises PrecisionUnderflow.
    """

    def __init__(self, ring: SeriesRing, logs: Mapping[str, int]):
        self.ring = ring
        self.logs = {v: int(logs.get(v, 0)) for v in ring.variables}
        # Per variable, in ring order: the log m and p^|m|, the factor that
        # multiplies (m >= 0) or divides (m < 0) its exponent.
        self._factors = tuple((m, ring.p ** abs(m)) for m in self.logs.values())

    def scale(self, mono: Monomial) -> Monomial:
        """The image of the monomial mono: each exponent multiplied by p^m
        for a log m >= 0, divided by p^-m for m < 0. An exponent that the
        division leaves off the grid raises PrecisionUnderflow."""
        new = []
        for e, (m, q) in zip(mono, self._factors):
            if m >= 0:
                new.append(e * q)
            elif e % q:
                raise PrecisionUnderflow(
                    f"exponent {e}/p^{self.ring.precision} not divisible by p^{-m}"
                )
            else:
                new.append(e // q)
        return tuple(new)

    def apply(self, x: TruncSeries) -> TruncSeries:
        if x.ring is not self.ring and x.ring != self.ring:
            raise ContextMismatch("endomorphism applied outside its ring")
        p = self.ring.p
        bound = self.ring.max_scaled
        # Exponent scaling is injective, so no two terms share an image.
        terms = {}
        for mono, c in x.terms.items():
            new = self.scale(mono)
            c %= p
            if c and sum(new) < bound:
                terms[new] = c
        return TruncSeries(self.ring, terms)

    def __repr__(self) -> str:
        parts = [f"{v}->{v}^p^{m}" for v, m in self.logs.items() if m]
        return f"FrobeniusEndo({', '.join(parts) or 'id'})"
