from fractions import Fraction as Q

import pytest

from coherence_lab import root_datum as rd
from coherence_lab.root_datum import (
    GradedLieAlgebraQ,
    PadicFieldParams,
    SolvableGroupDatum,
    Weight,
)


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


def test_validate_grading_violation():
    lie = GradedLieAlgebraQ(3, [0, 1, 2], {(0, 1): {2: Q(1)}})
    datum = SolvableGroupDatum(
        PadicFieldParams(p=3),
        1,
        ((1,),),
        (Weight((1,)), Weight((-1,)), Weight((1,), 1)),
        lie,
    )
    problems = rd.validate(datum)
    assert any("weights" in v and "equal exponents" in v for v in problems) or any(
        "outside weight" in v for v in problems
    )


def test_validate_rejects_non_nilpotent():
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
    datum = SolvableGroupDatum(
        PadicFieldParams(p=5), 0, (), (Weight((), 3),), lie
    )
    problems = rd.validate(datum)
    assert any("central series" in v for v in problems)


def test_validate_jacobi_violation():
    # [e1, e2] = e3 and [e1, e3] = e1 leave a nonzero Jacobi cycle on
    # (e1, e2, e3): the sum collapses to [e1, e2] = e3.
    lie = GradedLieAlgebraQ(
        3,
        [0, 0, 0],
        {(0, 1): {2: Q(1)}, (0, 2): {0: Q(1)}},
    )
    datum = SolvableGroupDatum(
        PadicFieldParams(p=2), 0, (), (Weight((), 3),), lie
    )
    problems = rd.validate(datum)
    assert any("Jacobi" in v for v in problems)


def test_validate_refuses_large_dimension():
    lie = GradedLieAlgebraQ(13, [0] * 13, {})
    datum = SolvableGroupDatum(
        PadicFieldParams(p=2), 0, (), (Weight((), 13),), lie
    )
    with pytest.raises(ValueError):
        rd.validate(datum)


def test_subalgebra_generated():
    lie = heisenberg_datum().lie
    ex, ey, ez = (lie.basis_vector(i) for i in range(3))
    whole = rd.subalgebra_generated(lie, [ex, ey])
    assert len(whole) == 3
    assert rd.subalgebra_generated(lie, [tuple(Q(0) for _ in range(3))]) == []
    two = rd.subalgebra_generated(lie, [ex, ez])
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


def test_witness_subgroup_refuses_non_nilpotent_algebra():
    # sl_2 graded by weights (1), (-1), (0): the pair (e, f) regenerates all
    # of sl_2 at every step, so the search cannot end.
    lie = GradedLieAlgebraQ(
        3,
        [0, 1, 2],
        {(0, 1): {2: Q(1)}, (2, 0): {0: Q(2)}, (2, 1): {1: Q(-2)}},
    )
    datum = SolvableGroupDatum(
        PadicFieldParams(p=2),
        1,
        ((1,),),
        (Weight((1,)), Weight((-1,)), Weight((0,))),
        lie,
    )
    with pytest.raises(rd.MalformedDatum):
        rd.witness_subgroup(datum, (1,), 0, 1)
