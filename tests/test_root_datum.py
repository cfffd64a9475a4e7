import random
from fractions import Fraction as Q

import pytest
import sympy

import lie_reference as ref
from coherence_lab import root_datum as rd
from coherence_lab.catalog import CATALOG
from coherence_lab.coherence import borel_datum_type_A
from coherence_lab.descriptors import parse_descriptor
from coherence_lab.root_datum import (
    GradedLieAlgebraQ,
    PadicFieldParams,
    SolvableGroupDatum,
    Weight,
)
from datagen import random_datum


def heisenberg_datum(p=3):
    lie = GradedLieAlgebraQ(3, [0, 1, 2], {(0, 1): {2: Q(1)}})
    return SolvableGroupDatum(
        field_params=PadicFieldParams(p=p),
        torus_rank=1,
        torus_generators=((1,),),
        weights=(Weight((1,)), Weight((-1,)), Weight((0,))),
        lie=lie,
    )


def test_field_params_invariants():
    PadicFieldParams(p=3, degree=4, ramification=2, residue_degree=2)
    with pytest.raises(ValueError):
        PadicFieldParams(p=4)
    with pytest.raises(ValueError):
        PadicFieldParams(p=3, degree=4, ramification=2, residue_degree=1)


def test_valuation_of_character():
    assert rd.valuation_of_character(Weight((1, 0)), (3, -2)) == 3
    assert rd.valuation_of_character(Weight((2, -1)), (1, 1)) == 1
    assert rd.valuation_of_character(Weight((0, 0, 0)), (5, -7, 2)) == 0
    with pytest.raises(ValueError):
        rd.valuation_of_character(Weight((1,)), (1, 2))


def test_f_matrix_transcription():
    lie = GradedLieAlgebraQ(3, [0, 1, 2], {})
    datum = SolvableGroupDatum(
        PadicFieldParams(p=2),
        2,
        ((1, 0),),
        (Weight((1, 0)), Weight((0, 1)), Weight((1, 1))),
        lie,
    )
    assert rd.f_matrix(datum) == [[1, 0], [0, 1], [1, 1]]


def test_f_matrix_adjoint_coordinates():
    # Root action of diag(a, b, c) on E12, E23, E13 with the determinant
    # direction eliminated gives the classical rank-2 exponent rows.
    lie = GradedLieAlgebraQ(
        3, [0, 1, 2], {(0, 1): {2: Q(1)}}
    )
    datum = SolvableGroupDatum(
        PadicFieldParams(p=2),
        2,
        ((1, 0), (0, 1)),
        (Weight((2, -1)), Weight((-1, 2)), Weight((1, 1))),
        lie,
    )
    assert rd.f_matrix(datum) == [[2, -1], [-1, 2], [1, 1]]


def test_f_image_examples():
    # Minimal two-weight encoding with generator valuations (1, -1).
    lie = GradedLieAlgebraQ(2, [0, 1], {})
    datum = SolvableGroupDatum(
        PadicFieldParams(p=3),
        2,
        ((1, -1),),
        (Weight((1, 0)), Weight((0, 1))),
        lie,
    )
    assert list(rd.f_image(datum).hnf_basis) == [(1, -1)]

    trivial = SolvableGroupDatum(
        PadicFieldParams(p=3), 2, (), (Weight((1, 0)), Weight((0, 1))), lie
    )
    assert rd.f_image(trivial).hnf_basis == ()

    one = SolvableGroupDatum(
        PadicFieldParams(p=2),
        1,
        ((1,),),
        (Weight((1,)),),
        GradedLieAlgebraQ(1, [0], {}),
    )
    assert list(rd.f_image(one).hnf_basis) == [(1,)]


def test_validate_accepts_heisenberg():
    assert rd.validate(heisenberg_datum()) == []


def test_f_matrix_empty_weight_set():
    lie = GradedLieAlgebraQ(0, [], {})
    datum = SolvableGroupDatum(PadicFieldParams(p=2), 2, ((1, 0),), (), lie)
    assert rd.f_matrix(datum) == []
    assert rd.f_image(datum).ambient_dim == 0


def test_f_map_linearity():
    # The valuation map is linear in the torus combination, exactly.
    import random

    rng = random.Random(10)
    datum = heisenberg_datum()
    m = rd.f_matrix(datum)
    for _ in range(50):
        v = tuple(rng.randint(-20, 20) for _ in range(datum.torus_rank))
        w = tuple(rng.randint(-20, 20) for _ in range(datum.torus_rank))

        def f(t):
            return tuple(sum(r[i] * t[i] for i in range(len(t))) for r in m)

        assert f(tuple(a + b for a, b in zip(v, w))) == tuple(
            a + b for a, b in zip(f(v), f(w))
        )


def grading_violation_datum():
    lie = GradedLieAlgebraQ(3, [0, 1, 2], {(0, 1): {2: Q(1)}})
    return SolvableGroupDatum(
        PadicFieldParams(p=3),
        1,
        ((1,),),
        (Weight((1,)), Weight((-1,)), Weight((1,), 1)),
        lie,
    )


def test_validate_grading_violation():
    problems = rd.validate(grading_violation_datum())
    assert any("weights" in v and "equal exponents" in v for v in problems) or any(
        "outside weight" in v for v in problems
    )


def sl2_datum():
    # sl_2 table smuggled in with all weights trivial: Jacobi holds but the
    # lower central series never reaches zero.
    lie = GradedLieAlgebraQ(
        3,
        [0, 0, 0],
        {
            (0, 1): {2: Q(1)},       # [e, f] = h
            (2, 0): {0: Q(2)},       # [h, e] = 2e
            (2, 1): {1: Q(-2)},      # [h, f] = -2f
        },
    )
    return SolvableGroupDatum(PadicFieldParams(p=5), 0, (), (Weight((), 3),), lie)


def test_validate_rejects_non_nilpotent():
    problems = rd.validate(sl2_datum())
    assert any("central series" in v for v in problems)


def jacobi_violation_datum():
    # [e1, e2] = e3 and [e1, e3] = e1 leave a nonzero Jacobi cycle on
    # (e1, e2, e3): the sum collapses to [e1, e2] = e3.
    lie = GradedLieAlgebraQ(
        3,
        [0, 0, 0],
        {(0, 1): {2: Q(1)}, (0, 2): {0: Q(1)}},
    )
    return SolvableGroupDatum(PadicFieldParams(p=2), 0, (), (Weight((), 3),), lie)


def test_validate_jacobi_violation():
    problems = rd.validate(jacobi_violation_datum())
    assert any("Jacobi" in v for v in problems)


def test_validate_refuses_large_dimension():
    lie = GradedLieAlgebraQ(13, [0] * 13, {})
    datum = SolvableGroupDatum(
        PadicFieldParams(p=2), 0, (), (Weight((), 13),), lie
    )
    with pytest.raises(ValueError):
        rd.validate(datum)


def test_bracket_table_matches_pair_scan():
    # Random constants given in either orientation, both orientations with
    # different values, on the diagonal, and with zero coefficients that are
    # dropped: the table equals the dim^2 pair scan's.
    rng = random.Random(13)
    for _ in range(300):
        dim = rng.randint(0, 7)
        given = {}
        for _ in range(rng.randint(0, dim * dim)):
            ij = (rng.randrange(dim), rng.randrange(dim))
            given[ij] = {
                rng.randrange(dim): Q(rng.randint(-2, 2), rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))
            }
        lie = GradedLieAlgebraQ(dim, [0] * dim, given)
        want = ref.bracket_table(dim, lie._raw)
        assert lie._table == want
        for i in range(dim):
            for j in range(dim):
                assert lie.bracket_basis(i, j) == want.get((i, j), {})


def test_subalgebra_generated():
    lie = heisenberg_datum().lie
    ex, ey, ez = (lie.basis_vector(i) for i in range(3))
    whole = ref.subalgebra_generated(lie, [ex, ey])
    assert len(whole) == 3
    assert ref.subalgebra_generated(lie, [tuple(Q(0) for _ in range(3))]) == []
    two = ref.subalgebra_generated(lie, [ex, ez])
    assert len(two) == 2


def test_lower_central_series():
    abelian = GradedLieAlgebraQ(2, [0, 0], {})
    chain = rd.lower_central_series(abelian)
    assert [len(b) for b in chain] == [2, 0]

    heis = heisenberg_datum().lie
    chain = rd.lower_central_series(heis)
    assert [len(b) for b in chain] == [3, 1, 0]

    filiform = GradedLieAlgebraQ(
        4, [0, 0, 0, 0], {(0, 1): {2: Q(1)}, (0, 2): {3: Q(1)}}
    )
    chain = rd.lower_central_series(filiform)
    assert [len(b) for b in chain] == [4, 2, 1, 0]


def test_lower_central_series_not_nilpotent():
    sl2 = GradedLieAlgebraQ(
        3,
        [0, 0, 0],
        {(0, 1): {2: Q(1)}, (2, 0): {0: Q(2)}, (2, 1): {1: Q(-2)}},
    )
    with pytest.raises(rd.NotNilpotent):
        rd.lower_central_series(sl2)


def test_witness_subgroup_abelian_base_case():
    lie = GradedLieAlgebraQ(2, [0, 1], {})
    datum = SolvableGroupDatum(
        PadicFieldParams(p=3),
        1,
        ((1,),),
        (Weight((1,)), Weight((-1,))),
        lie,
    )
    w = rd.witness_subgroup(datum, (1,), 0, 1)
    assert w.kind == "G3"
    assert len(w.subalgebra_basis) == 2
    assert (w.n_u, w.n_v, w.n_prime) == (1, 1, 1)


def test_witness_subgroup_heisenberg():
    datum = heisenberg_datum()
    w = rd.witness_subgroup(datum, (1,), 0, 1)
    assert w.kind == "H3"
    assert len(w.subalgebra_basis) == 3
    assert w.n_alpha == 1 and w.n_beta == -1


def test_witness_subgroup_recursion_step():
    # Four-dimensional filiform with weights arranged so the first bracket
    # has positive valuation: manual trace gives [e1, e2] = e3 with
    # n = 2 - 1 = 1 > 0, so the pair becomes (e3, e2); those two commute,
    # leaving the 2-dimensional abelian witness span{e2, e3}.
    lie = GradedLieAlgebraQ(
        4, [0, 1, 2, 3], {(0, 1): {2: Q(1)}, (0, 2): {3: Q(1)}}
    )
    datum = SolvableGroupDatum(
        PadicFieldParams(p=2),
        1,
        ((1,),),
        (Weight((2,)), Weight((-1,)), Weight((1,)), Weight((3,))),
        lie,
    )
    w = rd.witness_subgroup(datum, (1,), 0, 1)
    assert w.kind in ("G3", "H3")
    assert len(w.subalgebra_basis) < 4
    assert w.n_alpha > 0 > w.n_beta


def test_witness_subgroup_precondition():
    datum = heisenberg_datum()
    with pytest.raises(rd.PreconditionViolation):
        rd.witness_subgroup(datum, (1,), 1, 0)


def test_witness_subgroup_representative_fallback():
    # alpha weight space is 2-dimensional; the first basis vector commutes
    # with the beta line but the second does not. The fallback must pick the
    # non-commuting pair deterministically.
    lie = GradedLieAlgebraQ(
        4,
        [0, 0, 1, 2],
        {(1, 2): {3: Q(1)}},
    )
    datum = SolvableGroupDatum(
        PadicFieldParams(p=2),
        1,
        ((1,),),
        (Weight((1,), 2), Weight((-1,)), Weight((0,))),
        lie,
    )
    assert rd.validate(datum) == []
    w = rd.witness_subgroup(datum, (1,), 0, 1)
    assert w.kind == "H3"


def graded_sl2_datum():
    # sl_2 graded by weights (1), (-1), (0).
    lie = GradedLieAlgebraQ(
        3,
        [0, 1, 2],
        {(0, 1): {2: Q(1)}, (2, 0): {0: Q(2)}, (2, 1): {1: Q(-2)}},
    )
    return SolvableGroupDatum(
        PadicFieldParams(p=2),
        1,
        ((1,),),
        (Weight((1,)), Weight((-1,)), Weight((0,))),
        lie,
    )


def test_witness_subgroup_refuses_non_nilpotent_algebra():
    # The pair (e, f) regenerates all of sl_2 at every step, so the search
    # cannot end.
    with pytest.raises(rd.MalformedDatum):
        rd.witness_subgroup(graded_sl2_datum(), (1,), 0, 1)


def _random_entry(rng, rational):
    if rng.random() < 0.5:
        return Q(0)
    return Q(rng.randint(-9, 9), rng.randint(1, 9) if rational else 1)


def _random_rows(rng, rational):
    """A random matrix over Q with some zero rows and, often, rows that are
    combinations of others (rank deficient)."""
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
    rows = [[_random_entry(rng, rational) for _ in range(ncols)] for _ in range(nrows)]
    for r in range(nrows):
        roll = rng.random()
        if roll < 0.15:
            rows[r] = [Q(0)] * ncols
        elif roll < 0.4 and r >= 2:
            a, b = rng.sample(range(r), 2)
            s, t = _random_entry(rng, rational), _random_entry(rng, rational)
            rows[r] = [s * x + t * y for x, y in zip(rows[a], rows[b])]
    return rows


@pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
def test_rref_frac_matches_sympy(rational):
    rng = random.Random(12 + rational)
    seen = {"zero row": 0, "rank deficient": 0, "in span": 0, "not in span": 0}
    for _ in range(200):
        rows = _random_rows(rng, rational)
        m = sympy.Matrix(rows)
        reduced, pivots = m.rref()
        expected = [
            tuple(Q(int(a.p), int(a.q)) for a in reduced.row(i)) for i in range(len(pivots))
        ]
        got = rd._rref_frac(rows)
        assert got == expected
        assert all(type(a) is Q for row in got for a in row)
        seen["zero row"] += any(not any(r) for r in rows)
        seen["rank deficient"] += len(pivots) < len(rows)
        # Membership against the rank test, for a combination of the rows
        # and for a random vector.
        coeffs = [Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in rows]
        combo = [sum((c * r[k] for c, r in zip(coeffs, rows)), Q(0)) for k in range(m.cols)]
        other = [_random_entry(rng, rational) for _ in range(m.cols)]
        for v in (combo, other):
            member = m.col_join(sympy.Matrix([v])).rank() == m.rank()
            assert rd._in_span(got, v) is member
            seen["in span" if member else "not in span"] += 1
    assert min(seen.values()) > 10, seen


def _changed_basis(lie, rng):
    """The same algebra in a random rational basis f_a = sum_i P[a][i] e_i,
    all in one weight: its structure constants are dense and its lower
    central series terms are not spanned by basis vectors."""
    n = lie.dim
    while True:
        m = sympy.Matrix(n, n, lambda *_: rng.randint(-2, 2))
        if m.det():
            break
    inv = m.inv()
    brackets = {}
    for a in range(n):
        for b in range(a + 1, n):
            terms = {}
            for i in range(n):
                for j in range(n):
                    for k, c in lie.bracket_basis(i, j).items():
                        for t in range(n):
                            terms[t] = terms.get(t, 0) + m[a, i] * m[b, j] * c * inv[k, t]
            brackets[(a, b)] = {t: Q(int(v.p), int(v.q)) for t, v in terms.items()}
    return SolvableGroupDatum(
        PadicFieldParams(p=2), 0, (), (Weight((), n),), GradedLieAlgebraQ(n, [0] * n, brackets)
    )


def _oracle_data():
    """Seeded datagen data, the catalog's solvable entries, the type-A Borel
    data up to the validation cap, some of these in a random basis, and this
    module's failure data."""
    rng = random.Random(12)
    data = [random_datum(rng) for _ in range(150)]
    data += [
        parse_descriptor(entry["descriptor"])
        for entry in CATALOG.values()
        if entry["descriptor"]["kind"] == "solvable"
    ]
    borel = [borel_datum_type_A(r, PadicFieldParams(p=2)) for r in range(1, 5)]
    data += borel + [_changed_basis(datum.lie, rng) for datum in borel + data[:6]]
    data += [
        heisenberg_datum(),
        grading_violation_datum(),
        sl2_datum(),
        jacobi_violation_datum(),
        graded_sl2_datum(),
    ]
    return data


def _random_vector(rng, dim):
    return tuple(
        Q(0) if rng.random() < 0.5 else Q(rng.randint(-5, 5), rng.randint(1, 4))
        for _ in range(dim)
    )


def test_sparse_kernels_match_dense_reference():
    rng = random.Random(13)
    problems = set()
    nilpotent = 0
    for datum in _oracle_data():
        lie = datum.lie
        violations = rd.validate(datum)
        assert violations == ref.validate(datum)
        problems.update(v.split(" ")[0] for v in violations)
        try:
            expected = ref.lower_central_series(lie)
        except rd.NotNilpotent:
            with pytest.raises(rd.NotNilpotent):
                rd.lower_central_series(lie)
        else:
            assert rd.lower_central_series(lie) == expected
            nilpotent += 1
        for _ in range(3):
            x, y = _random_vector(rng, lie.dim), _random_vector(rng, lie.dim)
            assert lie.bracket(x, y) == ref.bracket(lie, x, y)
    assert nilpotent > 150
    # Jacobi, grading (equal weights and an off-weight bracket) and
    # nilpotency failures all occur.
    assert {"Jacobi", "weights", "bracket", "lower"} <= problems, problems
