"""Acceptance suite: one test per criterion, one printed verdict line each.

Every tolerance here is exact (integer/rational/F_p arithmetic); the only
numeric budgets are wall-clock limits, asserted with generous headroom.
Criterion 9 is implemented twice: once literally as stated (the unit-factor
order that only holds for p = 2, a = 1; the two failing cases are strict
xfails documenting the defect) and once in the order the group law forces,
which passes for all three parameter pairs.
"""

import json
import random
import time

import pytest

from coherence_lab import finite_groups as fg
from coherence_lab import int_lattice as il
from coherence_lab import obstruction as obs
from coherence_lab import skew_checks as sc
from coherence_lab.catalog import catalog_check
from coherence_lab.cli import main as cli_main
from coherence_lab.coherence import (
    Coherent,
    NotCoherent,
    RootSystemLabel,
    borel_datum_type_A,
    decide_semisimple,
    decide_solvable,
)
from coherence_lab.int_lattice import ConeViolation, IntLattice
from coherence_lab.root_datum import PadicFieldParams, valuation_of_character
from coherence_lab.skew_poly import SkewPoly

import lie_reference as lie_ref
from datagen import random_datum, random_off_ray_pair, random_on_ray_pair

SEED = 20240811


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_catalog_verdicts():
    t0 = time.perf_counter()
    rows = catalog_check()
    by_name = {r["name"]: r for r in rows}
    expectations = {
        "SL2": "coherent",
        "PGL2": "coherent",
        "SL3": "not_coherent",
        "GL3": "not_coherent",
        "GL4": "not_coherent",
        "A2": "not_coherent",
        "B2": "not_coherent",
        "C2": "not_coherent",
        "G2": "not_coherent",
        "Qp": "coherent",
        "Qp^3": "coherent",
        "U3": "coherent",
        "pZ-semidirect-Qp": "coherent",
        "G3": "not_coherent",
        "H3": "not_coherent",
    }
    ok = all(by_name[n]["got"] == v and by_name[n]["ok"] for n, v in expectations.items())
    ok = ok and by_name["G3"]["witness"] == "G3" and by_name["H3"]["witness"] == "H3"
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(1, ok, f"{len(expectations)} catalog verdicts reproduced in {elapsed:.2f}s")
    assert ok


def test_criterion_2_cross_theorem_consistency():
    agree = []
    for r in (1, 2, 3):
        semi = decide_semisimple(RootSystemLabel("A", r)).coherent
        solv = isinstance(
            decide_solvable(borel_datum_type_A(r, PadicFieldParams(p=3))), Coherent
        )
        agree.append(semi == solv)
    ok = all(agree)
    report(2, ok, f"semisimple rank rule matches Borel data for ranks 1-3: {agree}")
    assert ok


def test_criterion_3_lattice_merge_suite():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    ok = True
    for _ in range(1000):
        n = rng.randint(1, 6)
        x, y = random_on_ray_pair(rng, n)
        g = il.merge_pair(x, y)
        if isinstance(g, ConeViolation):
            ok = False
            break
        span = IntLattice(n, [x, y])
        ray = IntLattice(n, [g])
        if not (span.contains(g) and ray.contains(x) and ray.contains(y)):
            ok = False
            break
    mixed_checked = 0
    for _ in range(400):
        n = rng.randint(2, 6)
        x, y = random_off_ray_pair(rng, n)
        out = il.merge_pair(x, y)
        if not isinstance(out, ConeViolation):
            ok = False
            break
        w = out.witness
        if il.in_sign_cone(w) or not IntLattice(n, [x, y]).contains(w):
            ok = False
            break
        mixed_checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(
        3,
        ok,
        f"1000 on-ray merges + {mixed_checked} mixed-sign witnesses verified "
        f"in {elapsed:.2f}s",
    )
    assert ok


def test_criterion_4_certificate_soundness():
    rng = random.Random(SEED + 1)
    coherent_seen = not_coherent_seen = 0
    ok = True
    for _ in range(200):
        datum = random_datum(rng)
        images = [
            tuple(
                sum(w.exponents[i] * v[i] for i in range(datum.torus_rank))
                for w in datum.weights
            )
            for v in datum.torus_generators
        ]
        out = decide_solvable(datum)
        if isinstance(out, Coherent):
            coherent_seen += 1
            ray = IntLattice(len(datum.weights), [out.generator])
            if not all(ray.contains(img) for img in images):
                ok = False
                break
        else:
            not_coherent_seen += 1
            combo = out.torus_combination
            recomputed = tuple(
                sum(combo[a] * images[a][i] for a in range(len(images)))
                for i in range(len(datum.weights))
            )
            if recomputed != out.mixed_witness:
                ok = False
                break
            t_val = tuple(
                sum(
                    combo[a] * datum.torus_generators[a][i]
                    for a in range(len(combo))
                )
                for i in range(datum.torus_rank)
            )
            w = out.embedded
            if not (
                valuation_of_character(datum.weights[w.alpha], t_val) == w.n_alpha
                and valuation_of_character(datum.weights[w.beta], t_val) == w.n_beta
                and w.n_alpha > 0 > w.n_beta
            ):
                ok = False
                break
            # Bracket closure of the embedded subalgebra, by the dense
            # oracle rather than the program's elimination.
            basis = lie_ref.rref(w.subalgebra_basis)
            for x in w.subalgebra_basis:
                for y in w.subalgebra_basis:
                    b = lie_ref.bracket(datum.lie, x, y)
                    if any(c != 0 for c in b) and not lie_ref.in_span(basis, b):
                        ok = False
    report(
        4,
        ok,
        f"200 random data certified exactly "
        f"({coherent_seen} coherent, {not_coherent_seen} not)",
    )
    assert ok and coherent_seen and not_coherent_seen


def test_criterion_5_skew_relation_suite():
    t0 = time.perf_counter()
    results = []
    for p in (2, 3):
        for n_u in (1, 2):
            for n_v in (1, 2):
                rep = sc.verify_relations(
                    p=p, n_u=n_u, n_v=n_v, window=4, trunc=8, m_max=3
                )
                results.append(
                    (p, n_u, n_v, rep.ok, rep.interior_checked, rep.kernel_dim)
                )
    elapsed = time.perf_counter() - t0
    ok = all(r[3] for r in results) and elapsed < 60.0
    checked = sum(r[4] for r in results)
    assert [r[4] for r in results] == [222, 161, 161, 108, 137, 100, 100, 66]
    report(
        5,
        ok,
        f"8 parameter sets: S sound, {checked} interior kernel vectors in "
        f"span(S), {elapsed:.1f}s",
    )
    assert ok


def test_criterion_6_obstruction_suite():
    ok = True
    for n_u in (1, 2, 3):
        for n_v in (1, 2, 3):
            if obs.monomial_obstruction(2, 1, 1, n_u, n_v, window=8):
                ok = False
    if not obs.monomial_obstruction(2, 1, 1, 0, 1, window=8):
        ok = False
    demo = obs.not_fg_demonstration(2, 1, 1, n_max=6, window=8)
    ok = ok and demo.all_strict and len(demo.steps) == 6
    report(
        6,
        ok,
        "s*t avoids all twisted product ideals (n_u, n_v <= 3, window 8); "
        "control collapses; chain strict at 6/6 stages",
    )
    assert ok


def test_criterion_7_one_variable_machinery():
    ok = True
    for p in (2, 3, 5):
        if not sc.one_var_free_decomposition(p, 16).ok:
            ok = False
    rng = random.Random(SEED + 2)
    checked = 0
    for _ in range(20):
        p = rng.choice((2, 3))
        ctx = sc.one_var_context(p, 8, window=9)
        ring = ctx.base

        def rand_poly():
            out = ctx.zero()
            for _ in range(rng.randint(1, 2)):
                j = rng.randint(0, 2)
                a = rng.randint(0, 7)
                coeff = rng.randrange(1, p)
                from coherence_lab.skew_series import TruncSeries

                out = out + SkewPoly(ctx, {(j,): TruncSeries(ring, {(a,): coeff})})
            return out

        gens = [
            (rand_poly(), rand_poly()) for _ in range(rng.randint(1, 2))
        ]
        rep = sc.filtration_identity_check(gens, k_max=4)
        if not rep.ok:
            ok = False
        checked += 1
    ctx = sc.one_var_context(2, 8, window=10)
    t_poly = SkewPoly.from_series(ctx, ctx.base.var("t"))
    f_poly = ctx.gen("F")
    hand = (
        sc.mjm_degree_detect([(t_poly,)], 4),
        sc.mjm_degree_detect([(t_poly * ctx.gen("F", 2),)], 4),
        sc.mjm_degree_detect([(t_poly,), (f_poly,)], 4),
    )
    ok = ok and hand == (0, 2, 1)
    report(
        7,
        ok,
        f"free rank-p decomposition (p=2,3,5; N=16), filtration identity on "
        f"{checked} random submodules, degree detection {hand}",
    )
    assert ok


def _subgroup(G, selector):
    coords = {
        "center": [(0, 0, 1)],
        "row": [(1, 0, 0), (0, 0, 1)],
        "column": [(0, 1, 0), (0, 0, 1)],
        "e12": [(1, 0, 0)],
        "e23": [(0, 1, 0)],
        "diagonal-free": [(1, 1, 0), (0, 0, 1)],
        "full": None,
    }[selector]
    if coords is None:
        return G.full()
    pa = G.pa
    return fg.Subgroup(G, [G.index[tuple(c % pa for c in g)] for g in coords])


def test_criterion_8_mackey_suite():
    t0 = time.perf_counter()
    pairs = [
        ("center", "row"),
        ("row", "column"),
        ("e12", "e23"),
        ("center", "column"),
        ("diagonal-free", "e23"),
        ("column", "full"),
    ]
    ok = True
    runs = 0
    for p, a in ((2, 1), (3, 1), (2, 2)):
        G = fg.FiniteGroup(p, a)
        for i, (hname, gname) in enumerate(pairs):
            H = _subgroup(G, hname)
            G1 = _subgroup(G, gname)
            for dim in (1, 2):
                if dim == 1:
                    module = fg.FinModule.trivial(G1, p, 1)
                else:
                    module = fg.random_unipotent_module(
                        G1, p, dim=2, seed=SEED + 17 * i
                    )
                # rep.ok includes the glued coset-representative verdict.
                rep = fg.mackey_check(G, H, G1, module)
                expected_lhs = (G.order // G1.order) * module.dim
                if not (rep.ok and rep.lhs_dim == expected_lhs):
                    ok = False
                runs += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(
        8,
        ok,
        f"{runs} restriction-of-induction checks across 3 groups x "
        f"{len(pairs)} subgroup pairs in {elapsed:.1f}s",
    )
    assert ok


COMMUTATOR_CASES = [
    pytest.param(2, 1, id="p2-a1"),
    pytest.param(
        3,
        1,
        id="p3-a1",
        marks=pytest.mark.xfail(
            strict=True,
            reason="unit-factor order defect: exact convolution gives "
            "st - ts = (1+t)(1+s)w; the stated (1+s)(1+t)w order fails "
            "for p > 2 (see decisions ledger)",
        ),
    ),
    pytest.param(
        2,
        2,
        id="p2-a2",
        marks=pytest.mark.xfail(
            strict=True,
            reason="unit-factor order defect: (1+s)(1+t)w differs from "
            "(1+t)(1+s)w by (1+t)(1+s)w^2, nonzero once a > 1",
        ),
    ),
]


@pytest.mark.parametrize("p,a", COMMUTATOR_CASES)
def test_criterion_9_commutator_identity_as_stated(p, a):
    # Literal form of the criterion: st - ts = (1+s)(1+t)w.
    assert fg.commutator_identity_report(p, a).printed_order_holds


@pytest.mark.parametrize("p,a", [(2, 1), (3, 1), (2, 2)])
def test_criterion_9_commutator_identity_corrected_order(p, a):
    rep = fg.commutator_identity_report(p, a)
    assert rep.group_identity and rep.algebra_identity


def test_criterion_9_summary():
    stated = {
        (p, a): fg.commutator_identity_report(p, a).printed_order_holds
        for (p, a) in ((2, 1), (3, 1), (2, 2))
    }
    corrected = {
        (p, a): fg.commutator_identity_report(p, a).algebra_identity
        for (p, a) in ((2, 1), (3, 1), (2, 2))
    }
    ok = all(corrected.values())
    report(
        9,
        ok,
        f"corrected-order identity st-ts=(1+t)(1+s)w exact for all three "
        f"cases; as-stated order holds only for {sorted(k for k, v in stated.items() if v)} "
        f"(factor-order defect, xfailed)",
    )
    assert ok


def test_criterion_10_determinism(tmp_path):
    commands = [
        ["decide", "G3"],
        ["decide", "SL2"],
        ["verify-skew", "--window", "3", "--mmax", "2"],
        ["obstruction"],
        ["mackey", "--p", "2", "--a", "1", "--dim", "2"],
        ["catalog", "--check"],
    ]
    ok = True
    for i, cmd in enumerate(commands):
        blobs = []
        for run_idx in (0, 1):
            path = tmp_path / f"report-{i}-{run_idx}.json"
            code = cli_main(["--quiet", "--seed", "7", "--json", str(path)] + cmd)
            assert code == 0
            blobs.append(path.read_bytes())
        if blobs[0] != blobs[1]:
            ok = False
        json.loads(blobs[0])
    report(10, ok, f"{len(commands)} commands re-run byte-identically")
    assert ok
