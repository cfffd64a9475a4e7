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
    e1, e2, _ = w.subalgebra_basis
    forgeries = {
        "not bracket-closed": dataclasses.replace(w, kind="G3", subalgebra_basis=(e1, e2)),
        "n_alpha mismatch": dataclasses.replace(w, n_alpha=w.n_alpha + 1),
        "n_beta mismatch": dataclasses.replace(w, n_beta=w.n_beta - 1),
    }
    for message, forged in forgeries.items():
        with pytest.raises(AssertionError, match=message):
            ch._check_embedded(datum, out.torus_combination, forged)
    # The torus element is re-derived from the combination, not trusted.
    with pytest.raises(AssertionError, match="n_alpha mismatch"):
        ch._check_embedded(datum, (2,), w)


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
        assert rd._rref_frac(basis) == ref.subalgebra_generated(lie, basis[:2])
        if out.embedded.kind == "G3":
            assert len(basis) == 2 and not any(lie.bracket(*basis))
        else:
            assert len(basis) == 3 and lie.bracket(basis[0], basis[1]) == basis[2]
            assert not any(lie.bracket(basis[0], basis[2]))
            assert not any(lie.bracket(basis[1], basis[2]))
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
