import random

import pytest

from coherence_lab import int_lattice as il
from coherence_lab.int_lattice import ConeViolation, IntLattice

from datagen import random_off_ray_pair, random_on_ray_pair


def test_hnf_examples():
    assert il.hnf([(2, 0), (0, 2), (1, 1)]) == [(1, 1), (0, 2)]
    assert il.hnf([(0, 0)]) == []
    assert il.hnf([(5,)]) == [(5,)]


def test_hnf_idempotent_and_canonical():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randint(1, 5)
        gens = [
            tuple(rng.randint(-9, 9) for _ in range(n))
            for _ in range(rng.randint(1, 4))
        ]
        basis = il.hnf(gens)
        assert il.hnf(basis) == basis
        # A unimodular reshuffle of the generators spans the same lattice.
        shuffled = list(gens)
        rng.shuffle(shuffled)
        if len(shuffled) >= 2:
            shuffled[0] = tuple(
                a + 3 * b for a, b in zip(shuffled[0], shuffled[1])
            )
        assert il.hnf(shuffled) == basis


def test_hnf_length_mismatch():
    with pytest.raises(il.LengthMismatch):
        il.hnf([(1, 2), (1,)])


def test_hnf_structure():
    # Pivots positive and strictly right-moving; entries above each pivot
    # reduced into [0, pivot).
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        gens = [
            tuple(rng.randint(-9, 9) for _ in range(n))
            for _ in range(rng.randint(1, 4))
        ]
        basis = il.hnf(gens)
        pivot_cols = []
        for row in basis:
            c = next(i for i, a in enumerate(row) if a != 0)
            pivot_cols.append(c)
            assert row[c] > 0
        assert pivot_cols == sorted(set(pivot_cols))
        for i, row in enumerate(basis):
            c = pivot_cols[i]
            for j in range(i):
                assert 0 <= basis[j][c] < row[c]


def test_contains():
    lat = IntLattice(2, [(1, 1), (0, 2)])
    assert lat.contains((3, 5))
    assert lat.contains((0, 0))
    assert not IntLattice(1, [(2,)]).contains((3,))
    with pytest.raises(il.LengthMismatch):
        lat.contains((1, 2, 3))


def test_sign_cone():
    assert il.in_sign_cone((1, 2, 0))
    assert il.in_sign_cone((0, 0))
    assert il.in_sign_cone((-1, -3))
    assert not il.in_sign_cone((1, -1))


def test_merge_pair_examples():
    assert il.merge_pair((2, 4), (1, 2)) == (1, 2)
    assert il.merge_pair((0, 0), (3, 5)) == (3, 5)
    out = il.merge_pair((1, 0), (0, 1))
    assert isinstance(out, ConeViolation)
    assert out.witness == (1, -1)
    assert il.merge_pair((2, 2), (3, 3)) == (1, 1)


def test_merge_pair_rejects_negative_input():
    with pytest.raises(ValueError):
        il.merge_pair((-1, 0), (1, 0))


def test_merge_pair_zero_gap_witness():
    out = il.merge_pair((2, 3), (2, 0))
    # y = (2, 0) vanishes where x does not (after orientation): the witness
    # must combine the inputs and leave the cone.
    assert isinstance(out, ConeViolation)
    w = out.witness
    assert not il.in_sign_cone(w)
    assert w == tuple(
        out.coeff_x * a + out.coeff_y * b for a, b in zip((2, 3), (2, 0))
    )


def test_merge_pair_on_ray_property():
    from math import gcd

    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 6)
        x, y = random_on_ray_pair(rng, n)
        g = il.merge_pair(x, y)
        assert not isinstance(g, ConeViolation)
        span = IntLattice(n, [x, y])
        assert span.contains(g)
        assert IntLattice(n, [g]).contains(x)
        assert IntLattice(n, [g]).contains(y)
        # The generator is primitive on its ray: its content is the gcd of
        # the contents of the combined lattice.
        assert gcd(*g) == gcd(*x, *y)


def test_merge_pair_off_ray_property():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randint(2, 6)
        x, y = random_off_ray_pair(rng, n)
        out = il.merge_pair(x, y)
        assert isinstance(out, ConeViolation)
        assert not il.in_sign_cone(out.witness)
        assert IntLattice(n, [x, y]).contains(out.witness)
        assert out.witness == tuple(
            out.coeff_x * a + out.coeff_y * b for a, b in zip(x, y)
        )


def test_cyclic_cone_generator_examples():
    res = il.cyclic_cone_generator(IntLattice(2, [(2, 4), (3, 6)]))
    assert res.generator == (1, 2)
    res = il.cyclic_cone_generator(IntLattice(2, [(1, 0), (0, 1)]))
    assert res.mixed_witness == (1, -1)
    res = il.cyclic_cone_generator(IntLattice(3, []))
    assert res.generator == (0, 0, 0)


def test_cyclic_cone_generator_negative_ray():
    # Sign normalization folds the all-nonpositive generator first.
    res = il.cyclic_cone_generator(IntLattice(2, [(-2, -4), (1, 2)]))
    assert res.generator == (1, 2)


def test_cyclic_cone_generator_certificates():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 5)
        gens = [
            tuple(rng.randint(-6, 6) for _ in range(n))
            for _ in range(rng.randint(0, 4))
        ]
        lat = IntLattice(n, gens)
        res = il.cyclic_cone_generator(lat)
        if res.generator is not None:
            g = res.generator
            assert all(c >= 0 for c in g)
            for v in gens:
                assert IntLattice(n, [g]).contains(v)
        else:
            w = res.mixed_witness
            assert lat.contains(w)
            assert not il.in_sign_cone(w)


def test_check_cone_certificate_rejects_forgeries():
    vecs = [(2, 4), (3, 6)]
    res, coeffs = il.cyclic_cone_generator_tracked(vecs, 2)
    il._check_cone_certificate(vecs, res, coeffs)
    with pytest.raises(AssertionError):
        il._check_cone_certificate(vecs, res, [c + 1 for c in coeffs])
    # (2, 4) is a combination of the inputs but does not divide (3, 6).
    with pytest.raises(AssertionError):
        il._check_cone_certificate(vecs, il.CyclicConeResult(generator=(2, 4)), [1, 0])
    # (1, 1) lies in the lattice of (1, 0), (0, 1) but inside the sign cone.
    with pytest.raises(AssertionError):
        il._check_cone_certificate(
            [(1, 0), (0, 1)], il.CyclicConeResult(mixed_witness=(1, 1)), [1, 1]
        )


def test_hnf_matches_sympy():
    # sympy's Hermite normal form spans the columns and reduces entries to
    # the right of each pivot; reversing the coordinate order turns it into
    # this module's row form, entries above each pivot reduced.
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    rng = random.Random(6)
    checked = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        gens = [
            [rng.randint(-9, 9) for _ in range(n)] for _ in range(rng.randint(1, 6))
        ]
        if rng.random() < 0.3:  # a dependent generator
            gens.append([2 * a - 3 * b for a, b in zip(gens[0], gens[-1])])
        ours = il.hnf(gens)
        if not ours:
            continue
        cols = hermite_normal_form(Matrix([g[::-1] for g in gens]).T)
        theirs = [tuple(int(a) for a in col[::-1]) for col in cols.T.tolist()][::-1]
        assert ours == theirs
        checked += 1
    assert checked > 250


from hypothesis import given, settings, strategies as st  # noqa: E402

_DETERMINISTIC = settings(derandomize=True, database=None, max_examples=300)


def _nonneg_vectors(n):
    return st.lists(st.integers(0, 20), min_size=n, max_size=n).map(tuple)


@_DETERMINISTIC
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(_nonneg_vectors(n), _nonneg_vectors(n))
    )
)
def test_merge_pair_dichotomy_property(xy):
    x, y = xy
    n = len(x)
    out = il.merge_pair(x, y)
    if isinstance(out, ConeViolation):
        assert out.witness == tuple(
            out.coeff_x * a + out.coeff_y * b for a, b in zip(x, y)
        )
        assert not il.in_sign_cone(out.witness)
    else:
        assert all(a >= 0 for a in out)
        assert IntLattice(n, [out]) == IntLattice(n, [x, y])


_int_vectors = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.integers(-20, 20), min_size=n, max_size=n).map(tuple)
)


@_DETERMINISTIC
@given(_int_vectors, st.integers(-50, 50))
def test_divides_vec_multiples_property(g, k):
    assert il.divides_vec(g, tuple(k * a for a in g))


@_DETERMINISTIC
@given(_int_vectors, st.data())
def test_divides_vec_non_multiples_property(g, data):
    v = data.draw(st.lists(st.integers(-20, 20), min_size=len(g), max_size=len(g)))
    is_multiple = any(
        tuple(k * a for a in g) == tuple(v) for k in range(-20, 21)
    )
    assert il.divides_vec(g, tuple(v)) == is_multiple
