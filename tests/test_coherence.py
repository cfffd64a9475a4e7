import hashlib
import json
import random
from fractions import Fraction as Q

import pytest

from coherence_lab import coherence as ch
from coherence_lab import int_lattice
from coherence_lab import root_datum as rd
from coherence_lab.coherence import (
    Coherent,
    InvalidDatum,
    InvalidLabel,
    NotCoherent,
    RootSystemLabel,
    borel_datum_type_A,
    decide_semisimple,
    decide_solvable,
)
from coherence_lab.root_datum import (
    GradedLieAlgebraQ,
    PadicFieldParams,
    SolvableGroupDatum,
    Weight,
    valuation_of_character,
)
from coherence_lab.descriptors import verdict_to_json

import lie_reference as ref
from datagen import random_datum


def g3_datum(p=3):
    lie = GradedLieAlgebraQ(2, [0, 1], {})
    return SolvableGroupDatum(
        PadicFieldParams(p=p),
        1,
        ((1,),),
        (Weight((1,)), Weight((-1,))),
        lie,
    )


def h3_datum(p=3):
    lie = GradedLieAlgebraQ(3, [0, 1, 2], {(0, 1): {2: Q(1)}})
    return SolvableGroupDatum(
        PadicFieldParams(p=p),
        1,
        ((1,),),
        (Weight((1,)), Weight((-1,)), Weight((0,))),
        lie,
    )


def test_decide_g3_minimal():
    out = decide_solvable(g3_datum())
    assert isinstance(out, NotCoherent)
    assert out.embedded.kind == "G3"
    assert out.mixed_witness == (1, -1)


def test_decide_h3():
    out = decide_solvable(h3_datum())
    assert isinstance(out, NotCoherent)
    assert out.embedded.kind == "H3"
    assert out.mixed_witness == (1, -1, 0)
    assert (out.embedded.n_u, out.embedded.n_v) == (1, 1)


def test_check_embedded_rejects_forged_witnesses():
    import dataclasses

    datum = h3_datum()
    out = decide_solvable(datum)
    w = out.embedded
    ch._check_embedded(datum, out.torus_combination, w)
    e1, e2, e3 = w.subalgebra_basis
    forgeries = {
        "not bracket-closed": dataclasses.replace(w, kind="G3", subalgebra_basis=(e1, e2)),
        "n_alpha mismatch": dataclasses.replace(w, n_alpha=w.n_alpha + 1),
        "n_beta mismatch": dataclasses.replace(w, n_beta=w.n_beta - 1),
        # Right length and bracket-closed, but linearly dependent.
        "G3 witness basis has rank 1": dataclasses.replace(
            w, kind="G3", subalgebra_basis=(e1, e1)
        ),
        "H3 witness basis has rank 1": dataclasses.replace(w, subalgebra_basis=(e1, e1, e1)),
        "H3 witness basis has rank 2": dataclasses.replace(w, subalgebra_basis=(e1, e3, e3)),
    }
    for message, forged in forgeries.items():
        with pytest.raises(AssertionError, match=message):
            ch._check_embedded(datum, out.torus_combination, forged)
    # The torus element is re-derived from the combination, not trusted.
    with pytest.raises(AssertionError, match="n_alpha mismatch"):
        ch._check_embedded(datum, (2,), w)


def test_check_embedded_on_non_reduced_bases():
    # The closure check reduces copies: a closed witness given in a basis
    # that is not in echelon form passes, and a non-closed one fails.
    import dataclasses

    def plus(x, y):
        return tuple(a + b for a, b in zip(x, y))

    g3 = decide_solvable(g3_datum())
    g1, g2 = g3.embedded.subalgebra_basis
    closed = dataclasses.replace(g3.embedded, subalgebra_basis=(plus(g1, g2), g2))
    ch._check_embedded(g3_datum(), g3.torus_combination, closed)
    datum = h3_datum()
    out = decide_solvable(datum)
    e1, e2, e3 = out.embedded.subalgebra_basis
    for basis in [(plus(e1, e2), e2, e3), (plus(e1, e2), e1, e3), (e3, plus(e2, e3), e1)]:
        forged = dataclasses.replace(out.embedded, subalgebra_basis=basis)
        ch._check_embedded(datum, out.torus_combination, forged)
    open_g3 = dataclasses.replace(out.embedded, kind="G3", subalgebra_basis=(plus(e1, e2), e2))
    with pytest.raises(AssertionError, match="not bracket-closed"):
        ch._check_embedded(datum, out.torus_combination, open_g3)


def test_check_embedded_is_exact_on_int_bases():
    # Q's inverse keeps int input exact: the echelon loop over Q returns
    # only Fractions, so a witness basis of ints, as library code may build
    # one, is re-checked exactly as its Fraction form is.
    import dataclasses

    from coherence_lab.catalog import CATALOG, decide, parse_descriptor
    from coherence_lab.echelon import _echelon

    basis = _echelon([{0: 3, 1: 1}, {1: 7, 2: 2}], rd._same, rd._recip)
    assert basis == {0: {0: 1, 2: Q(-2, 21)}, 1: {1: 1, 2: Q(2, 7)}}
    assert all(type(v) is Q for row in basis.values() for v in row.values())
    for name in ("G3", "H3"):
        datum = parse_descriptor(CATALOG[name]["descriptor"])
        out = decide(datum)
        w = out.embedded
        units = [tuple(int(x) for x in v) for v in w.subalgebra_basis]
        # A non-reduced int basis of the same span: 3 u_0 + u_1, 7 u_1, ...
        mixed = [tuple(3 * a + b for a, b in zip(units[0], units[1]))]
        mixed += [tuple(7 * x for x in u) for u in units[1:]]
        for ints in (units, mixed):
            fracs = [tuple(Q(x) for x in v) for v in ints]
            assert rd._bracket_closed(datum.lie, ints) == len(ints)
            assert rd._bracket_closed(datum.lie, fracs) == len(ints)
            for b in (ints, fracs):
                forged = dataclasses.replace(w, subalgebra_basis=tuple(b))
                ch._check_embedded(datum, out.torus_combination, forged)
    # Forged int bases of the H3 witness are still refused.
    combo = out.torus_combination
    forgeries = {
        "not bracket-closed": ("G3", ((3, 1, 0), (1, 0, 0))),
        "H3 witness basis has rank 2": ("H3", ((3, 0, 0), (6, 0, 0), (0, 0, 5))),
    }
    for message, (kind, ints) in forgeries.items():
        forged = dataclasses.replace(w, kind=kind, subalgebra_basis=ints)
        with pytest.raises(AssertionError, match=message):
            ch._check_embedded(datum, combo, forged)


def test_decide_p_semidirect_qp():
    datum = SolvableGroupDatum(
        PadicFieldParams(p=2),
        1,
        ((1,),),
        (Weight((1,)),),
        GradedLieAlgebraQ(1, [0], {}),
    )
    out = decide_solvable(datum)
    assert isinstance(out, Coherent)
    assert out.generator == (1,)
    assert not out.trivial_image


def test_decide_trivial_torus_unipotent():
    datum = SolvableGroupDatum(
        PadicFieldParams(p=2),
        0,
        (),
        (Weight((), 3),),
        GradedLieAlgebraQ(3, [0, 0, 0], {(0, 1): {2: Q(1)}}),
    )
    out = decide_solvable(datum)
    assert isinstance(out, Coherent)
    assert out.trivial_image
    assert out.generator == (0,)


def test_decide_borel_sl3_not_coherent():
    out = decide_solvable(borel_datum_type_A(2, PadicFieldParams(p=3)))
    assert isinstance(out, NotCoherent)


def test_decide_rejects_invalid():
    bad = SolvableGroupDatum(
        PadicFieldParams(p=2),
        1,
        ((1,),),
        (Weight((1,)), Weight((1,))),
        GradedLieAlgebraQ(2, [0, 1], {}),
    )
    with pytest.raises(InvalidDatum):
        decide_solvable(bad)


def test_semisimple_rank_rule():
    assert decide_semisimple(RootSystemLabel("A", 1)).coherent
    assert not decide_semisimple(RootSystemLabel("A", 2)).coherent
    assert not decide_semisimple(RootSystemLabel("G", 2)).coherent


def test_root_system_label_validation():
    for fam, rank in [("A", 0), ("B", 1), ("D", 2), ("E", 9), ("F", 3), ("G", 1)]:
        with pytest.raises(InvalidLabel):
            RootSystemLabel(fam, rank)
    RootSystemLabel("D", 3)
    RootSystemLabel("E", 8)


def test_borel_rank_one_coherent():
    out = decide_solvable(borel_datum_type_A(1, PadicFieldParams(p=2)))
    assert isinstance(out, Coherent)
    assert out.generator == (1,)


def test_borel_rank_three_not_coherent():
    datum = borel_datum_type_A(3, PadicFieldParams(p=2))
    assert datum.lie.dim == 6
    out = decide_solvable(datum)
    assert isinstance(out, NotCoherent)


def test_cross_oracle_semisimple_vs_borel():
    for r in (1, 2, 3):
        semi = decide_semisimple(RootSystemLabel("A", r))
        solv = decide_solvable(borel_datum_type_A(r, PadicFieldParams(p=3)))
        assert semi.coherent == isinstance(solv, Coherent)


def test_scaling_invariance():
    rng = random.Random(6)
    for _ in range(60):
        datum = random_datum(rng)
        doubled = SolvableGroupDatum(
            datum.field_params,
            datum.torus_rank,
            tuple(tuple(2 * c for c in g) for g in datum.torus_generators),
            datum.weights,
            datum.lie,
        )
        assert isinstance(decide_solvable(datum), Coherent) == isinstance(
            decide_solvable(doubled), Coherent
        )


def test_certificate_soundness_randomized():
    rng = random.Random(7)
    seen = {Coherent: 0, NotCoherent: 0}
    for _ in range(80):
        datum = random_datum(rng)
        out = decide_solvable(datum)
        seen[type(out)] += 1
        images = [
            tuple(
                sum(w.exponents[i] * v[i] for i in range(datum.torus_rank))
                for w in datum.weights
            )
            for v in datum.torus_generators
        ]
        if isinstance(out, Coherent):
            from coherence_lab.int_lattice import IntLattice

            ray = IntLattice(len(datum.weights), [out.generator])
            for img in images:
                assert ray.contains(img)
        else:
            combo = out.torus_combination
            recomputed = tuple(
                sum(combo[a] * images[a][i] for a in range(len(images)))
                for i in range(len(datum.weights))
            )
            assert recomputed == out.mixed_witness
            t_val = tuple(
                sum(combo[a] * datum.torus_generators[a][i] for a in range(len(combo)))
                for i in range(datum.torus_rank)
            )
            w = out.embedded
            assert valuation_of_character(datum.weights[w.alpha], t_val) == w.n_alpha
            assert valuation_of_character(datum.weights[w.beta], t_val) == w.n_beta
            assert w.n_alpha > 0 > w.n_beta
    # The generator must exercise both branches to be worth anything.
    assert seen[Coherent] > 5 and seen[NotCoherent] > 5


def test_witness_basis_spans_generated_subalgebra():
    rng = random.Random(8)
    kinds = set()
    for _ in range(120):
        datum = random_datum(rng)
        out = decide_solvable(datum)
        if isinstance(out, Coherent):
            continue
        lie, basis = datum.lie, out.embedded.subalgebra_basis
        kinds.add(out.embedded.kind)
        assert ref.rref(basis) == ref.subalgebra_generated(lie, basis[:2])
        if out.embedded.kind == "G3":
            assert len(basis) == 2 and not any(ref.bracket(lie, *basis))
        else:
            assert len(basis) == 3 and ref.bracket(lie, basis[0], basis[1]) == basis[2]
            assert not any(ref.bracket(lie, basis[0], basis[2]))
            assert not any(ref.bracket(lie, basis[1], basis[2]))
    assert kinds == {"G3", "H3"}


def test_decide_builds_and_verifies_each_certificate_once(monkeypatch):
    calls = {"_bracket_closed": 0, "_check_cone_certificate": 0}
    for module, name in (
        (rd, "_bracket_closed"),
        (int_lattice, "_check_cone_certificate"),
    ):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    out = decide_solvable(h3_datum())
    assert isinstance(out, NotCoherent) and out.embedded.kind == "H3"
    assert calls == {"_bracket_closed": 1, "_check_cone_certificate": 1}


def test_verdict_digest_over_seeded_data():
    rng = random.Random(9)
    verdicts = [verdict_to_json(decide_solvable(random_datum(rng))) for _ in range(200)]
    digest = hashlib.sha256(json.dumps(verdicts).encode()).hexdigest()
    # Pinned before the witness search became one loop: the verdicts, witness
    # kinds and bases must not move.
    assert digest == "6ffd3106fb0cba102f790d24cfe19ba4b63a85442879c8afc81123d66f631a03"
