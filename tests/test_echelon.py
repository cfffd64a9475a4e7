"""The shared sparse echelon loop against sympy's reduced row echelon form,
on random sparse rows: mod p as `fp_linalg` runs it, for primes up to
2^64 - 59, and over Q as `root_datum` runs it, on int and on Fraction
input."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

from coherence_lab import fp_linalg as fl
from coherence_lab import root_datum as rd
from coherence_lab.echelon import _echelon

PRIMES = (2, 3, 5, 13, 2**31 - 1, 2**61 - 1, 2**64 - 59)


def _combine(a, b, c, d, norm):
    """The row c * a + d * b without zeros."""
    out = {k: norm(c * a.get(k, 0) + d * b.get(k, 0)) for k in sorted(a.keys() | b.keys())}
    return {k: v for k, v in out.items() if v}


@st.composite
def _sparse_rows(draw, values, norm):
    """(rows, ncols): rows of at most 4 nonzeros over at most 10 columns,
    then up to 3 rows that combine two earlier ones, so that zero and
    dependent rows are common."""
    ncols = draw(st.integers(1, 10))
    row = st.dictionaries(st.integers(0, ncols - 1), values, max_size=4)
    rows = draw(st.lists(row, min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        rows.append(_combine(a, b, draw(values), draw(values), norm))
    return draw(st.permutations(rows)), ncols


def _sympy_rref(rows, ncols, K):
    """sympy's reduced basis of the rows over the domain K, as {pivot: {column:
    value}} with the values still in K."""
    sdm = {i: {j: K(v) for j, v in row.items()} for i, row in enumerate(rows) if row}
    red, pivots = DomainMatrix(sdm, (len(rows), ncols), K).rref()
    red = red.to_sdm()
    return {c: red[i] for i, c in enumerate(pivots)}


@st.composite
def _mod_p_cases(draw):
    p = draw(st.sampled_from(PRIMES))
    return p, draw(_sparse_rows(st.integers(1, p - 1), lambda x: x % p))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_mod_p_cases())
def test_echelon_mod_p_matches_sympy(case):
    p, (rows, ncols) = case
    got = fl._rref(fl.FpMatrix(rows, ncols, p))
    want = _sympy_rref(rows, ncols, GF(p))
    assert list(got) == list(want)
    assert got == {c: {j: int(x) % p for j, x in row.items()} for c, row in want.items()}
    assert all(0 < v < p for row in got.values() for v in row.values())


_RATIONAL_ROWS = st.sampled_from([st.integers(), st.fractions()]).flatmap(
    lambda values: _sparse_rows(values.filter(bool), rd._same)
)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_RATIONAL_ROWS)
def test_echelon_over_q_matches_sympy(case):
    rows, ncols = case
    got = _echelon([dict(row) for row in rows], rd._same, rd._recip)
    exact = [{j: QQ(v.numerator, v.denominator) for j, v in row.items()} for row in rows]
    want = _sympy_rref(exact, ncols, QQ)
    assert list(got) == list(want)
    assert got == {
        c: {j: Fraction(int(x.numerator), int(x.denominator)) for j, x in row.items()}
        for c, row in want.items()
    }
    # 1 == Fraction(1), so equality alone cannot see an int left in a row.
    assert all(type(v) is Fraction for row in got.values() for v in row.values())
