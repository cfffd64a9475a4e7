import dataclasses
import random

import numpy as np
import pytest

import fp_reference
from coherence_lab import finite_groups as fg
from coherence_lab import fp_linalg
from coherence_lab.finite_groups import FiniteGroup, FinModule, Subgroup


@pytest.fixture(scope="module")
def u3f2():
    return FiniteGroup(2, 1)


@pytest.fixture(scope="module")
def u3f3():
    return FiniteGroup(3, 1)


def named(G, *coords):
    return Subgroup(G, [G.index[c] for c in coords])


def _left_cosets(G, G1):
    """G/G1, the partition mackey_check computes once and reads H\\G/G1 off."""
    return fg._cosets(G, range(G.order), G1, "left")


def _double_cosets(G, H, G1):
    return fg.double_cosets(G, H, _left_cosets(G, G1))


def _decompose(G, H, G1):
    return fg._decompose(G, H, G1, _left_cosets(G, G1))


def test_group_table(u3f2):
    G = u3f2
    assert G.order == 8
    e = G.identity
    for i in range(G.order):
        assert G.mul(i, e) == i == G.mul(e, i)
        assert G.mul(i, G.inv(i)) == e


def test_budget():
    with pytest.raises(fg.BudgetExceeded):
        FiniteGroup(2, 5)
    with pytest.raises(fg.BudgetExceeded):
        FiniteGroup(17, 1)


def test_budget_follows_the_order_cap(monkeypatch):
    # The guard on a is derived from the cap, not fixed at today's value.
    monkeypatch.setattr(fg, "MAX_GROUP_ORDER", 2**15)
    G = FiniteGroup(2, 5)
    assert G.order == 2**15 and G.elements[-1] == (31, 31, 31)
    with pytest.raises(fg.BudgetExceeded, match="exceeds 32768"):
        FiniteGroup(2, 6)
    with pytest.raises(fg.BudgetExceeded, match="exceeds 32768"):
        FiniteGroup(37, 1)


def test_budget_refuses_a_huge_exponent_at_once():
    # Refused before any power of p is taken: 2^(3 * 10^18) is never built.
    with pytest.raises(fg.BudgetExceeded):
        FiniteGroup(2, 10**18)
    with pytest.raises(fg.BudgetExceeded):
        FiniteGroup(3317044064679887385961813, 10**18)


def test_double_cosets_trivial_cases(u3f2):
    G = u3f2
    full = G.full()
    assert _double_cosets(G, full, full) == [G.identity]
    trivial = Subgroup(G, [])
    H = named(G, (1, 0, 0))
    # With one side trivial, double cosets are plain cosets of the other.
    assert len(_double_cosets(G, trivial, H)) == G.order // H.order


def test_double_cosets_center(u3f2):
    G = u3f2
    center = named(G, (0, 0, 1))
    assert len(_double_cosets(G, center, center)) == 4


def test_induce_identity(u3f2):
    G = u3f2
    full = G.full()
    M = fg.random_unipotent_module(full, 2, dim=2, seed=3)
    ind, reps = fg.induce(M, full)
    assert ind.dim == M.dim and reps == [G.identity]


def test_induce_regular_representation(u3f2):
    G = u3f2
    full = G.full()
    trivial = Subgroup(G, [])
    ind, _ = fg.induce(FinModule.trivial(trivial, 2, 1), full)
    assert ind.dim == G.order
    for g in full.generators:
        m = np.array(ind.action_of(g))
        assert np.array_equal(np.sort(m.sum(axis=0)), np.ones(G.order))


def test_induce_from_center(u3f2):
    G = u3f2
    full = G.full()
    center = named(G, (0, 0, 1))
    ind, _ = fg.induce(FinModule.trivial(center, 2, 1), full)
    assert ind.dim == 4


def _restrict(module, small):
    """The same space as a module over a smaller subgroup: a module of its
    own, with the generator actions of `small` read from `module`. The
    dense Mackey oracle builds one per double coset, so it shares no piece
    code with the program, which reads every block from the caller's
    module."""
    assert small.element_set <= module.subgroup.element_set
    actions = [module.action_of(g) for g in small.generators]
    return FinModule(small, module.p, actions, check=False, dim=module.dim)


def _conjugate_module(module, g):
    """The oracle's module over g*G1*g^-1 on which g*x*g^-1 acts as x acts
    on `module`, with its own closure, checked against its elements."""
    G = module.subgroup.parent
    conj = Subgroup(G, [G.conjugate(g, x) for x in module.subgroup.generators])
    assert set(conj.elements) == {G.conjugate(g, x) for x in module.subgroup.elements}
    return FinModule(conj, module.p, module.gen_actions, check=False, dim=module.dim)


def test_restrict(u3f2):
    # The oracle's restriction acts as the module it was read from.
    G = u3f2
    full = G.full()
    M = fg.random_unipotent_module(full, 2, dim=2, seed=5)
    again = _restrict(M, full)
    for g in full.elements:
        assert np.array_equal(again.action_of(g), M.action_of(g))
    trivial = Subgroup(G, [])
    res = _restrict(M, trivial)
    assert res.dim == M.dim and res.gen_actions == []
    H = named(G, (1, 0, 0), (0, 0, 1))
    res = _restrict(M, H)
    assert all(res.action_of(h) == M.action_of(h) for h in H.elements)


def test_restrict_regular_rep_dimension(u3f2):
    G = u3f2
    full = G.full()
    H = named(G, (1, 0, 0))
    reg, _ = fg.induce(FinModule.trivial(Subgroup(G, []), 2, 1), full)
    # The regular representation restricted to H is [G:H] copies of the
    # regular representation of H: every orbit of H on G is free, so every
    # h != 1 of H acts by a fixed-point-free permutation.
    assert reg.dim == G.order and reg.dim // H.order == G.order // H.order
    for h in H.elements[1:]:
        assert np.trace(reg.action_of(h)) == 0
    res = _restrict(reg, H)
    assert res.dim == G.order
    assert all(res.action_of(h) == reg.action_of(h) for h in H.elements)


def test_conjugate_module(u3f3):
    # gamma in g*G1*g^-1 acts on M^g as g^-1*gamma*g acts on M: the oracle's
    # conjugated module and the program's conjugated action agree.
    G = u3f3
    row = named(G, (1, 0, 0), (0, 0, 1))
    M = fg.random_unipotent_module(row, 3, dim=2, seed=9)
    e = G.identity
    same = _conjugate_module(M, e)
    assert same.subgroup.element_set == row.element_set
    assert fg._conjugated(G, M, e) == M.action_of
    central = G.index[(0, 0, 1)]
    cm = _conjugate_module(M, central)
    assert cm.subgroup.element_set == row.element_set
    g = G.index[(0, 1, 0)]
    e12 = named(G, (1, 0, 0))
    # row is normal; e12 is not: g moves it off itself.
    for N in (M, fg.random_unipotent_module(e12, 3, dim=2, seed=9)):
        conj, action = _conjugate_module(N, g), fg._conjugated(G, N, g)
        for x in N.subgroup.elements:
            gx = G.conjugate(g, x)
            assert np.array_equal(conj.action_of(gx), N.action_of(x))
            assert action(gx) == N.action_of(x)
    assert conj.subgroup.element_set != e12.element_set
    # M^g acts on g e12 g^-1 only, which does not hold e12's generator.
    with pytest.raises(fg.NotASubgroup):
        action(e12.generators[0])


def test_mackey_trivial_everything(u3f2):
    G = u3f2
    full = G.full()
    M = fg.random_unipotent_module(full, 2, dim=2, seed=1)
    rep = fg.mackey_check(G, full, full, M)
    assert rep.ok and rep.lhs_dim == rep.rhs_dim == 2


def test_mackey_trivial_subgroup_corners(u3f2):
    # Generator-free subgroups must thread module dimensions through
    # induction, restriction, and conjugation.
    G = u3f2
    full = G.full()
    trivial = Subgroup(G, [])
    M = fg.random_unipotent_module(trivial, 2, dim=2, seed=4)
    rep = fg.mackey_check(G, trivial, trivial, M)
    assert rep.ok and rep.lhs_dim == G.order * 2
    rep = fg.mackey_check(G, full, trivial, M)
    assert rep.ok
    Mfull = fg.random_unipotent_module(full, 2, dim=2, seed=4)
    rep = fg.mackey_check(G, trivial, full, Mfull)
    assert rep.ok


def test_mackey_e12_e23(u3f2):
    G = u3f2
    H = named(G, (1, 0, 0))
    G1 = named(G, (0, 1, 0))
    rep = fg.mackey_check(G, H, G1, FinModule.trivial(G1, 2, 1))
    assert rep.ok
    assert rep.lhs_dim == 4


def test_mackey_random_modules(u3f3):
    G = u3f3
    center = named(G, (0, 0, 1))
    row = named(G, (1, 0, 0), (0, 0, 1))
    M = fg.random_unipotent_module(row, 3, dim=2, seed=11)
    rep = fg.mackey_check(G, center, row, M)
    assert rep.ok and rep.dims_match


def test_mackey_dimension_identity(u3f3):
    G = u3f3
    H = named(G, (1, 0, 0), (0, 0, 1))
    G1 = named(G, (0, 1, 0), (0, 0, 1))
    M = fg.random_unipotent_module(G1, 3, dim=2, seed=13)
    rep = fg.mackey_check(G, H, G1, M)
    assert rep.ok
    total = 0
    for g in _double_cosets(G, H, G1):
        conj_elems = {G.conjugate(g, x) for x in G1.elements}
        inter = conj_elems & set(H.elements)
        total += (H.order // len(inter)) * M.dim
    assert total == (G.order // G1.order) * M.dim == rep.lhs_dim


def _coset_reps_ok(G, H, G1):
    return fg.coset_rep_check(G, H, _decompose(G, H, G1))


def test_coset_rep_check(u3f2, u3f3):
    G = u3f2
    full = G.full()
    assert _coset_reps_ok(G, full, named(G, (0, 1, 0)))
    assert _coset_reps_ok(G, named(G, (1, 0, 0)), named(G, (0, 1, 0)))
    assert _coset_reps_ok(G, named(G, (1, 0, 0)), full)
    H3, G1 = named(u3f3, (0, 0, 1)), named(u3f3, (1, 0, 0), (0, 0, 1))
    assert _coset_reps_ok(u3f3, H3, G1)
    assert fg.mackey_check(u3f3, H3, G1, FinModule.trivial(G1, 3)).coset_reps_ok


def test_coset_rep_check_rejects_colliding_representatives(u3f3):
    # Swap one double-coset representative for another from the same double
    # coset: as many glued representatives as right cosets, but two collide.
    G = u3f3
    H, G1 = named(G, (0, 0, 1)), named(G, (1, 0, 0), (0, 0, 1))
    pieces = _decompose(G, H, G1)
    assert fg.coset_rep_check(G, H, pieces)
    g0 = pieces[0][0]
    twin = max({G.mul(G.mul(h, g0), k) for h in H.elements for k in G1.elements})
    conj = Subgroup(G, [G.conjugate(twin, x) for x in G1.generators])
    K = fg.subgroup_from_elements(G, [e for e in conj.elements if H.contains(e)])
    assert len(pieces) > 1 and twin != g0
    assert not fg.coset_rep_check(G, H, pieces[:-1] + [(twin, conj, K)])
    # A failed glued-representative verdict fails the whole Mackey report.
    rep = fg.mackey_check(G, H, G1, FinModule.trivial(G1, 3))
    assert rep.ok and not dataclasses.replace(rep, coset_reps_ok=False).ok


def test_coset_reps_left_and_right_transversals_agree():
    # coset_rep_check takes the least element of every right coset Ka of K
    # in gG1g^-1; those of the left cosets aK form the same set (its
    # docstring says why), also where the two partitions differ.
    differ = 0
    for p, a in ((2, 1), (3, 1), (2, 2)):
        G = FiniteGroup(p, a)
        subs = _selector_subgroups(G).values()
        for H in subs:
            for G1 in subs:
                for _, conj, K in _decompose(G, H, G1):
                    L = conj.elements
                    right = fg._cosets(G, L, K, "right")
                    left = fg._cosets(G, L, K, "left")
                    assert right[0] == left[0]
                    differ += right[1] != left[1]
    assert differ


def test_decompose_pieces_match_products(u3f2, u3f3):
    # Every piece is (g, gG1g^-1, gG1g^-1 cap H), g running over the
    # double-coset representatives in ascending order, the identity first.
    for G in (u3f2, u3f3):
        subs = _selector_subgroups(G).values()
        for H in subs:
            for G1 in subs:
                pieces = _decompose(G, H, G1)
                assert [g for g, _, _ in pieces] == _double_cosets_by_products(G, H, G1)
                assert pieces[0][0] == G.identity
                for g, conj, K in pieces:
                    conj_elems = {G.conjugate(g, x) for x in G1.elements}
                    assert set(conj.elements) == conj_elems
                    assert set(K.elements) == conj_elems & H.element_set


def test_induction_transitive(u3f3):
    # Ind_G1^G agrees with Ind_H'^G o Ind_G1^H' through the chain
    # <g13>  <=  <g12, g13>  <=  G: dimensions and an explicit intertwiner.
    G = u3f3
    full = G.full()
    mid = named(G, (1, 0, 0), (0, 0, 1))
    small = named(G, (0, 0, 1))
    M = FinModule.trivial(small, 3, 1)

    direct, reps_direct = fg.induce(M, full)
    inner, reps_inner = fg.induce(M, mid)
    outer, reps_outer = fg.induce(inner, full)
    assert direct.dim == outer.dim == (G.order // small.order) * M.dim

    # phi(g_i (x) (h_j (x) m)) = (g_i h_j) (x) m, expressed on the direct
    # basis g_k (x) (gamma . m).
    block_of = {}
    for k, r in enumerate(reps_direct):
        for h in small.elements:
            block_of[G.mul(r, h)] = k
    d = M.dim
    p = M.p
    phi = np.zeros((direct.dim, outer.dim), dtype=np.int64)
    col = 0
    for gi in reps_outer:
        for hj in reps_inner:
            prod = G.mul(gi, hj)
            k = block_of[prod]
            gamma = G.mul(G.inv(reps_direct[k]), prod)
            phi[k * d : (k + 1) * d, col : col + d] = M.action_of(gamma)
            col += d

    assert fp_linalg.rank(fp_reference.matrix(phi, p)) == direct.dim
    for g in full.generators:
        lhs = (direct.action_of(g) @ phi) % p
        rhs = (phi @ outer.action_of(g)) % p
        assert np.array_equal(lhs, rhs)


def test_commutator_identity_cases():
    for p, a in ((2, 1), (3, 1), (2, 2), (3, 2), (2, 4), (5, 1), (13, 1)):
        rep = fg.commutator_identity_report(FiniteGroup(p, a))
        assert dataclasses.astuple(rep) == (p, a, True, True, (p, a) == (2, 1))
        assert rep.ok


def _dense_product(G, p, x, y):
    """The convolution of two |G|-long coefficient lists, over every pair
    of nonzero coefficients: the reference for the sparse product."""
    out = [0] * G.order
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    k = G.mul(i, j)
                    out[k] = (out[k] + a * b) % p
    return out


@pytest.mark.parametrize("p,a", [(2, 2), (3, 2)])
def test_algebra_element_matches_dense_convolution(p, a):
    # Random elements of F_p[U3(Z/4)] and F_p[U3(Z/9)], with unreduced and
    # vanishing coefficients: sums, differences and products hold exactly
    # the nonzero terms of the dense lists, each in [1, p).
    G = FiniteGroup(p, a)
    rng = random.Random(G.order)
    for _ in range(40):
        x, y = ([0] * G.order for _ in range(2))
        for v in (x, y):
            for g in rng.sample(range(G.order), rng.randint(0, 12)):
                v[g] = rng.randrange(-p, 2 * p)
        ex, ey = (fg.AlgebraElement(G, p, dict(enumerate(v))) for v in (x, y))
        want = {
            "+": [(u + v) % p for u, v in zip(x, y)],
            "-": [(u - v) % p for u, v in zip(x, y)],
            "*": _dense_product(G, p, x, y),
        }
        for op, got in (("+", ex + ey), ("-", ex - ey), ("*", ex * ey)):
            assert got.coeffs == {g: c for g, c in enumerate(want[op]) if c}
            assert all(0 < c < p for c in got.coeffs.values())
        assert ex * ey == fg.AlgebraElement(G, p, dict(enumerate(want["*"])))
    with pytest.raises(ValueError, match="outside the group"):
        fg.AlgebraElement(G, p, {G.order: 1})


def test_commutator_unit_factor_order_matters():
    # Swapping the unit factors is only harmless in F_2[U_3(Z/2)]: the two
    # orders differ by (1+t)(1+s)w^2, and w^2 = 0 forces p = 2, a = 1.
    for p, a in ((2, 1), (3, 1), (2, 2)):
        holds = fg.commutator_identity_report(FiniteGroup(p, a)).printed_order_holds
        assert holds == ((p, a) == (2, 1))


def test_commutator_centrality_control(u3f3):
    G = u3f3
    one = fg.AlgebraElement.one(G, 3)
    s = fg.AlgebraElement.of(G, 3, G.index[(1, 0, 0)]) - one
    w = fg.AlgebraElement.of(G, 3, G.index[(0, 0, 1)]) - one
    assert w * s == s * w


def test_commutator_budget():
    # The report takes its group, so the order cap refuses U3(Z/32) before
    # any report is made.
    with pytest.raises(fg.BudgetExceeded):
        FiniteGroup(2, 5)


def test_augmentation_basis(u3f2):
    G = u3f2
    full = G.full()
    center = named(G, (0, 0, 1))
    trivial = Subgroup(G, [])
    assert fg.augmentation_basis(G, trivial, 2) == []
    assert len(fg.augmentation_basis(G, full, 2)) == G.order - 1
    assert len(fg.augmentation_basis(G, center, 2)) == G.order - G.order // 2


@pytest.mark.parametrize("p,a", [(3, 1), (2, 2)])
def test_augmentation_basis_matches_all_elements_span(p, a):
    # The products g(s - 1) over the generators s of H span the same ideal
    # as the g(h - 1) over every h in H: the reduced echelon rows agree,
    # for an identity among the generators too.
    G = FiniteGroup(p, a)
    subgroups = [Subgroup(G, []), named(G, (0, 0, 1)), G.full()]
    subgroups += [named(G, (1, 0, 0), (0, 0, 1)), Subgroup(G, [0, G.index[(0, 1, 0)]])]
    for H in subgroups:
        rows = [
            {G.mul(g, h): 1, g: p - 1}
            for g in range(G.order)
            for h in H.elements
            if h != G.identity
        ]
        want = fp_linalg.RowSpace(fp_linalg.FpMatrix(rows, G.order, p)).basis
        assert fg.augmentation_basis(G, H, p) == list(want.values())


def test_augmentation_normal_quotient_dimension(u3f3):
    # For normal H the quotient by the augmentation ideal has dimension
    # |G/H|; the center of the unitriangular group is normal.
    G = u3f3
    center = named(G, (0, 0, 1))
    dim_ideal = len(fg.augmentation_basis(G, center, 3))
    assert G.order - dim_ideal == G.order // center.order


def test_module_validation_rejects_bad_actions(u3f2):
    G = u3f2
    H = named(G, (1, 0, 0))
    with pytest.raises(ValueError):
        FinModule(H, 2, [np.array([[1, 1], [0, 0]])])
    # Order-2 generator mapped to an order-3 matrix over F_5 style clash.
    with pytest.raises(ValueError):
        FinModule(H, 2, [np.array([[0, 1], [1, 1]])])


def _tuple_mul(g, h, pa):
    return ((g[0] + h[0]) % pa, (g[1] + h[1]) % pa, (g[2] + h[2] + g[0] * h[1]) % pa)


def _tuple_inv(g, pa):
    return (-g[0] % pa, -g[1] % pa, (g[0] * g[1] - g[2]) % pa)


def _tuple_conj(g, h, pa):
    return _tuple_mul(_tuple_mul(g, h, pa), _tuple_inv(g, pa), pa)


@pytest.mark.parametrize("p, a", [(2, 1), (3, 1), (2, 2)])
def test_closed_form_law_matches_tuple_law_on_every_pair(p, a):
    G = FiniteGroup(p, a)
    pa = G.pa
    assert G.order == pa**3
    assert G.identity == 0 and G.elements[0] == (0, 0, 0)
    assert G.elements == sorted(G.elements)
    for i, g in enumerate(G.elements):
        assert G.index[g] == i
        assert G.inv(i) == G.index[_tuple_inv(g, pa)]
        assert G.mul(i, G.inv(i)) == 0 == G.mul(G.inv(i), i)
        for j, h in enumerate(G.elements):
            assert G.mul(i, j) == G.index[_tuple_mul(g, h, pa)]
            assert G.conjugate(i, j) == G.index[_tuple_conj(g, h, pa)]


@pytest.mark.parametrize("p, a", [(3, 2), (2, 4)])
def test_closed_form_law_random_pairs_and_triples(p, a):
    G = FiniteGroup(p, a)
    pa = G.pa
    rng = np.random.default_rng(1000 * p + a)
    for i, j, k in rng.integers(0, G.order, size=(10**4, 3)).tolist():
        g, h = G.elements[i], G.elements[j]
        assert G.mul(i, j) == G.index[_tuple_mul(g, h, pa)]
        assert G.inv(i) == G.index[_tuple_inv(g, pa)]
        assert G.conjugate(i, j) == G.index[_tuple_conj(g, h, pa)]
        assert G.mul(G.mul(i, j), k) == G.mul(i, G.mul(j, k))


@pytest.mark.parametrize("p, a", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4)])
def test_full_group_from_three_generators(p, a):
    G = FiniteGroup(p, a)
    full = G.full()
    assert len(full.generators) == 3
    assert full.elements == tuple(range(G.order))


# Selector name -> k, where the subgroup of U3(Z/p^a) has order p^(a*k).
SELECTOR_ORDER_EXPONENTS = {
    "center": 1,
    "row": 2,
    "column": 2,
    "e12": 1,
    "e23": 1,
    "diagonal-free": 2,
    "full": 3,
    "trivial": 0,
}


@pytest.mark.parametrize("p, a", [(2, 1), (3, 1), (2, 2), (3, 2), (13, 1)])
def test_selector_orders_closed_form(p, a):
    from coherence_lab.cli import SUBGROUP_SELECTORS, _resolve_subgroup

    G = FiniteGroup(p, a)
    assert set(SUBGROUP_SELECTORS) == set(SELECTOR_ORDER_EXPONENTS)
    for name, k in SELECTOR_ORDER_EXPONENTS.items():
        S = _resolve_subgroup(G, name)
        assert S.order == G.pa**k, name
        if G.order <= 27:
            # Closing all of its elements gives the subgroup back.
            assert Subgroup(G, list(S.elements)).elements == S.elements, name
    if G.order <= 27:
        assert Subgroup(G, list(range(G.order))).elements == G.full().elements


def _partition_by_products(G, domain, left, right):
    """Least element of each class h*g*k (h in `left`, k in `right`, both
    lists of all the elements of a subgroup) and every element's class
    position, by brute force over the products of the tuple law.

    The class of g is the union of the left classes h*(g*k) over k; one
    already labelled is the same left class again, so it is skipped.
    """
    els, pa = G.elements, G.pa
    reps, label = [], {}
    for g in domain:
        if g not in label:
            n = len(reps)
            for k in right:
                gk = _tuple_mul(els[g], els[k], pa)
                if G.index[gk] not in label:
                    for h in left:
                        label[G.index[_tuple_mul(els[h], gk, pa)]] = n
            reps.append(g)
    return reps, label


def _double_cosets_by_products(G, H, G1):
    return _partition_by_products(G, range(G.order), H.elements, G1.elements)[0]


def _selector_subgroups(G):
    from coherence_lab.cli import SUBGROUP_SELECTORS, _resolve_subgroup

    return {name: _resolve_subgroup(G, name) for name in SUBGROUP_SELECTORS}


def test_double_cosets_match_products_over_all_selectors(u3f2, u3f3):
    for G in (u3f2, u3f3):
        subs = _selector_subgroups(G).values()
        for H in subs:
            for G1 in subs:
                assert _double_cosets(G, H, G1) == _double_cosets_by_products(G, H, G1)


def test_orbit_labels_match_product_partitions(u3f2, u3f3):
    # Left cosets big/small and right cosets small\big: representatives and
    # every element's label; then the left cosets G/small, and the
    # representatives of the double cosets big\G/small read off them.
    for G in (u3f2, u3f3):
        subs = list(_selector_subgroups(G).values())
        one = [G.identity]
        for big in subs:
            for small in subs:
                if small.element_set <= big.element_set:
                    assert fg._cosets(
                        G, big.elements, small, "left"
                    ) == _partition_by_products(G, big.elements, one, small.elements)
                    assert fg._cosets(
                        G, big.elements, small, "right"
                    ) == _partition_by_products(G, big.elements, small.elements, one)
                cosets = _left_cosets(G, small)
                assert cosets == _partition_by_products(G, range(G.order), one, small.elements)
                assert fg.double_cosets(G, big, cosets) == _double_cosets_by_products(
                    G, big, small
                )


def _dense(block_map, rows, d):
    perm, blocks = block_map
    m = np.zeros((rows * d, len(perm) * d), dtype=np.int64)
    for i, (k, b) in enumerate(zip(perm, blocks)):
        m[k * d : (k + 1) * d, i * d : (i + 1) * d] = b
    return m


def _dense_mackey(G, H, G1, module):
    """The dense comparison: Res_H Ind_G1^G M, the double-coset sum and psi as
    full matrices, cosets by brute-force products, equivariance as dense
    products and bijectivity as the rank of psi; the glued representatives
    a g (a over (gG1g^-1 cap H)\\gG1g^-1) against the right H-cosets, all by
    products."""

    p, d = module.p, module.dim
    one = [G.identity]

    def induced(mod, reps, label, g):
        m = np.zeros((len(reps) * d, len(reps) * d), dtype=np.int64)
        for i, gi in enumerate(reps):
            prod = G.mul(g, gi)
            k = label[prod]
            m[k * d : (k + 1) * d, i * d : (i + 1) * d] = mod.action_of(
                G.mul(G.inv(reps[k]), prod)
            )
        return m

    lhs_reps, lhs_label = _partition_by_products(G, range(G.order), one, G1.elements)
    xreps = _double_cosets_by_products(G, H, G1)
    pieces = []
    for g in xreps:
        conj = _conjugate_module(module, g)
        K = fg.subgroup_from_elements(
            G, [e for e in conj.subgroup.elements if H.contains(e)]
        )
        hreps, hlabel = _partition_by_products(G, H.elements, one, K.elements)
        pieces.append((hreps, hlabel, _restrict(conj, K), g))
    lhs_dim = len(lhs_reps) * d
    rhs_dim = sum(len(hreps) for hreps, _, _, _ in pieces) * d

    zs = []
    for g in xreps:
        conj_elems = sorted({G.conjugate(g, x) for x in G1.elements})
        inter = [e for e in conj_elems if e in H.element_set]
        zs += [G.mul(a, g) for a in _partition_by_products(G, conj_elems, inter, one)[0]]
    h_reps, h_label = _partition_by_products(G, range(G.order), H.elements, one)
    coset_reps_ok = len(zs) == len(h_reps) == len({h_label[z] for z in zs})

    psi = np.zeros((lhs_dim, rhs_dim), dtype=np.int64)
    col = 0
    for hreps, _, _, g in pieces:
        for hi in hreps:
            hg = G.mul(hi, g)
            k = lhs_label[hg]
            psi[k * d : (k + 1) * d, col : col + d] = module.action_of(
                G.mul(G.inv(lhs_reps[k]), hg)
            )
            col += d

    equivariant = True
    for h in H.generators:
        rhs = np.zeros((rhs_dim, rhs_dim), dtype=np.int64)
        offset = 0
        for hreps, hlabel, piece, _ in pieces:
            size = len(hreps) * d
            rhs[offset : offset + size, offset : offset + size] = induced(
                piece, hreps, hlabel, h
            )
            offset += size
        lhs = induced(module, lhs_reps, lhs_label, h)
        if not np.array_equal((lhs @ psi) % p, (psi @ rhs) % p):
            equivariant = False
            break
    bijective = (
        lhs_dim == rhs_dim and fp_linalg.rank(fp_reference.matrix(psi, p)) == lhs_dim
    )
    return fg.MackeyReport(
        lhs_dim=lhs_dim,
        rhs_dim=rhs_dim,
        dims_match=lhs_dim == rhs_dim,
        psi_equivariant=equivariant,
        psi_bijective=bijective,
        double_coset_count=len(xreps),
        coset_reps_ok=coset_reps_ok,
    )


def _central_module(G1, p):
    """e13 acts as a Jordan block, every other generator trivially; None where
    that is not an action of G1 (e13 is a commutator or a power there)."""
    G = G1.parent
    z = G.index[(0, 0, 1 % G.pa)]
    jordan, eye = np.array([[1, 1], [0, 1]]), np.eye(2, dtype=np.int64)
    try:
        return FinModule(G1, p, [jordan if g == z else eye for g in G1.generators])
    except ValueError:
        return None


@pytest.mark.parametrize("p, a", [(2, 1), (3, 1), (2, 2)])
def test_mackey_block_path_matches_dense_reference(p, a):
    G = FiniteGroup(p, a)
    subs = _selector_subgroups(G).values()
    for H in subs:
        for G1 in subs:
            modules = [fg.random_unipotent_module(G1, p, dim=d, seed=17) for d in (1, 2)]
            # The unipotent modules ignore e13; this one does not.
            modules.append(_central_module(G1, p))
            for M in filter(None, modules):
                assert fg.mackey_check(G, H, G1, M) == _dense_mackey(G, H, G1, M)


def _random_block(rng, p, d, kind):

    if kind == "zero":
        return np.zeros((d, d), dtype=np.int64)
    if kind == "identity":
        return np.eye(d, dtype=np.int64)
    if kind == "singular":
        u = rng.integers(0, p, size=(d, 1))
        return (u @ rng.integers(0, p, size=(1, d))) % p
    while True:
        b = rng.integers(0, p, size=(d, d))
        if fp_linalg.rank(fp_reference.matrix(b, p)) == d:
            return b


def _inverse_mod(b, p):
    import sympy

    return np.array(sympy.Matrix(b.tolist()).inv_mod(p).tolist(), dtype=np.int64)


@pytest.mark.parametrize("p, d", [(2, 1), (2, 2), (3, 2), (5, 2)])
def test_block_predicates_match_dense_products_and_rank(p, d):

    rng = np.random.default_rng(100 * p + d)
    outcomes = {"intertwines": set(), "bijective": set(), "zero_moved": 0}
    for trial in range(300):
        n = int(rng.integers(1, 6))
        # Identity blocks take the shortcut in _intertwines.
        kinds = ["invertible", "identity", "singular", "zero"]
        lperm = rng.permutation(n).tolist()
        left = (lperm, [_random_block(rng, p, d, kinds[rng.integers(2)]) for _ in range(n)])
        if trial % 3 == 0:
            # Not a bijection on blocks, arbitrary blocks, arbitrary right side.
            psi = (
                rng.integers(0, n, size=n).tolist(),
                [_random_block(rng, p, d, kinds[rng.integers(4)]) for _ in range(n)],
            )
            right = (
                rng.integers(0, n, size=n).tolist(),
                [_random_block(rng, p, d, kinds[rng.integers(4)]) for _ in range(n)],
            )
        else:
            # psi permutes blocks and right = psi^-1 left psi on its invertible
            # blocks; a zero psi block gets a zero right block sent anywhere,
            # so both products vanish in different row blocks.
            perm = rng.permutation(n).tolist()
            blocks = [
                _random_block(rng, p, d, "zero" if rng.random() < 0.2 else kinds[rng.integers(2)])
                for _ in range(n)
            ]
            psi = (perm, blocks)
            where = {k: c for c, k in enumerate(perm)}
            rperm, rblocks = [], []
            for c in range(n):
                k = perm[c]
                j = where[lperm[k]]
                if not blocks[c].any() or not blocks[j].any():
                    j = int(rng.integers(n))
                    rblocks.append(np.zeros((d, d), dtype=np.int64))
                    outcomes["zero_moved"] += perm[j] != lperm[k]
                else:
                    rblocks.append(
                        (_inverse_mod(blocks[j], p) @ left[1][k] @ blocks[c]) % p
                    )
                rperm.append(j)
            if trial % 3 == 2:
                # Perturb one entry of one right block.
                c = int(rng.integers(n))
                rblocks[c] = rblocks[c].copy()
                rblocks[c][0, 0] = (rblocks[c][0, 0] + 1) % p
            right = (rperm, rblocks)
        L, P, R = _dense(left, n, d), _dense(psi, n, d), _dense(right, n, d)
        dense_eq = np.array_equal((L @ P) % p, (P @ R) % p)
        # The predicates take the program's form: tuple matrices of ints.
        left, psi, right = (
            (perm, [tuple(map(tuple, b.tolist())) for b in blocks])
            for perm, blocks in (left, psi, right)
        )
        assert fg._intertwines(left, psi, right, p) == dense_eq
        outcomes["intertwines"].add(dense_eq)
        dense_bij = fp_linalg.rank(fp_reference.matrix(P, p)) == n * d
        perm, blocks = psi
        assert fg._bijective((perm, blocks), n, p) == dense_bij
        outcomes["bijective"].add(dense_bij)
        # More column blocks than row blocks is never bijective.
        assert not fg._bijective((perm + [0], blocks + [blocks[0]]), n, p)
    assert outcomes["intertwines"] == outcomes["bijective"] == {True, False}
    assert outcomes["zero_moved"] > 0


def test_subgroup_from_elements_few_generators(u3f3):
    G = u3f3
    row = named(G, (1, 0, 0), (0, 0, 1))
    sub = fg.subgroup_from_elements(G, list(row.elements))
    assert sub.element_set == row.element_set
    assert len(sub.generators) == 2
    assert fg.subgroup_from_elements(G, []).elements == (0,)


def test_module_validation_rejects_wrong_order_at_729():
    # e12 has order 9 in U3(Z/9); diag(2, 1) has order 2 over F_3.
    G = FiniteGroup(3, 2)
    row = named(G, (1, 0, 0), (0, 0, 1))
    eye = np.eye(2, dtype=np.int64)
    with pytest.raises(ValueError, match="group law"):
        FinModule(row, 3, [np.array([[2, 0], [0, 1]]), eye])
    # A genuine action of the same subgroup passes.
    M = FinModule(row, 3, [np.array([[1, 1], [0, 1]]), eye])
    # Matrices are held as tuples of Python ints, whatever the input type.
    m = M.action_of(G.index[(8, 0, 0)])
    assert m == ((1, 2), (0, 1)) and all(type(x) is int for r in m for x in r)


def test_module_validation_checks_the_wrap_around_edge(u3f3):
    # e23 is cyclic of order 3, so its one non-tree edge is g^2 * g = 1;
    # diag(2, 1) has order 2 over F_3 and breaks only that edge.
    e23 = named(u3f3, (0, 1, 0))
    with pytest.raises(ValueError, match="^generator actions violate the group law$"):
        FinModule(e23, 3, [((2, 0), (0, 1))])
    FinModule(e23, 3, [((1, 1), (0, 1))])


def test_module_action_along_steps(u3f3):
    G = u3f3
    full = G.full()
    M = fg.random_unipotent_module(full, 3, dim=2, seed=7)
    for x in full.elements:
        for y in full.elements:
            lhs = (np.array(M.action_of(x)) @ M.action_of(y)) % 3
            assert np.array_equal(lhs, M.action_of(G.mul(x, y)))


def test_bijective_ranks_shared_blocks_once_and_still_sees_singular():
    sing = ((1, 1), (0, 0))
    eye = ((1, 0), (0, 1))
    assert not fg._bijective(([0, 1, 2], [sing, sing, sing]), 3, 2)
    assert not fg._bijective(([2, 0, 1], [eye, sing, eye]), 3, 2)
    assert fg._bijective(([2, 0, 1], [eye, eye, eye]), 3, 2)


def test_mackey_unchecked_singular_module_is_not_bijective(u3f2):
    # psi is equivariant here; only the rank of its one singular block shows
    # that it is not invertible.
    G = u3f2
    H = named(G, (1, 1, 0), (0, 0, 1))
    G1 = named(G, (0, 0, 1))
    M = FinModule(G1, 2, [np.array([[1, 1], [0, 0]])], check=False)
    rep = fg.mackey_check(G, H, G1, M)
    assert rep.psi_equivariant and rep.dims_match
    assert not rep.psi_bijective and not rep.ok


def _check_closure(S):
    """S is the subgroup its generators generate, by the tuple law alone:
    every element replays its `steps` path from the identity to itself,
    and the elements hold the identity and are closed under a right factor
    from the generators, so they are exactly the products of generators."""
    G = S.parent
    els, pa = G.elements, G.pa
    assert S.elements == tuple(sorted(S.steps)) and S.elements[0] == G.identity
    assert S.steps[G.identity] is None
    for e in S.elements:
        path, f = [], e
        while S.steps[f] is not None and len(path) < S.order:
            f, gi = S.steps[f]
            path.append(gi)
        assert f == G.identity
        x = els[G.identity]
        for gi in reversed(path):
            x = _tuple_mul(x, els[S.generators[gi]], pa)
        assert x == els[e]
        for g in S.generators:
            assert S.contains(G.index[_tuple_mul(els[e], els[g], pa)])


@pytest.mark.parametrize("p, a", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4)])
def test_subgroup_steps_replay_through_the_tuple_law(p, a):
    G = FiniteGroup(p, a)
    for S in _selector_subgroups(G).values():
        _check_closure(S)
    rng = random.Random(G.order)
    for _ in range(5):
        _check_closure(Subgroup(G, rng.sample(range(G.order), rng.randint(1, 3))))


from hypothesis import given, settings, strategies as st  # noqa: E402

# (p, a) with p^(3a) <= 729, and the orders up to 64 the dense Mackey
# reference runs at.
ORBIT_GROUPS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
MACKEY_GROUPS = [(2, 1), (3, 1), (2, 2)]


def _group_and_subgroups(p, a, *gen_lists):
    """The group and one subgroup per list of generator triples."""
    G = FiniteGroup(p, a)
    return G, [Subgroup(G, [G.index[g] for g in gens]) for gens in gen_lists]


def _check_orbits(p, a, hgens, kgens):
    # Right cosets H\L and left cosets L/K of random subgroups, L the whole
    # group or the subgroup both generate: representatives and every label
    # against the tuple-law partition. Then the double cosets H\L/K read off
    # L/K: representatives against the least elements of the tuple-law classes.
    G, (H, K) = _group_and_subgroups(p, a, hgens, kgens)
    _check_closure(H)
    _check_closure(K)
    one = [G.identity]
    for domain in (range(G.order), Subgroup(G, H.generators + K.generators).elements):
        assert fg._cosets(G, domain, H, "right") == _partition_by_products(
            G, domain, H.elements, one
        )
        cosets = fg._cosets(G, domain, K, "left")
        assert cosets == _partition_by_products(G, domain, one, K.elements)
        assert fg.double_cosets(G, H, cosets) == _partition_by_products(
            G, domain, H.elements, K.elements
        )[0]


def _check_mackey(p, a, hgens, g1gens, dim, seed, central):
    # The block path against the dense comparison, on a seeded unipotent
    # module or, where it is an action of G1, the central Jordan module.
    G, (H, G1) = _group_and_subgroups(p, a, hgens, g1gens)
    M = central and _central_module(G1, p)
    M = M or fg.random_unipotent_module(G1, p, dim=dim, seed=seed)
    assert fg.mackey_check(G, H, G1, M) == _dense_mackey(G, H, G1, M)


# The inputs the two property tests below shrank to against broken variants
# of finite_groups, one per id: the left translate with the right law's
# cross term, the right translate with the left law's, the closure
# multiplying on the left, the left translate's z left unreduced, the
# identity shortcut keeping the identity block, only the first right
# generator used without left ones, the closure with two generators, a
# piece acting by g*gamma*g^-1 instead of g^-1*gamma*g, and the identity
# piece's direct action used for every piece. The last two have dim 2 and
# a G1 that is not normal. The translates were those of a generator orbit
# walk, which `_cosets` and `double_cosets` replace. The coset routines'
# own variants shrank to: right cosets with the left side's cross term,
# left-translate; left cosets with the right side's, right-translate; the
# action on G/G1 multiplying on the right, coset-action-side; and a double
# coset represented by the least element of the last coset its orbit
# reaches, left-z-reduced.
@pytest.mark.parametrize(
    "p, a, hgens, kgens",
    [
        (2, 1, [(0, 1, 0)], []),
        (2, 1, [], [(0, 1, 0)]),
        (2, 1, [], [(0, 1, 0), (1, 0, 0)]),
        (2, 1, [(0, 0, 1)], []),
        (2, 1, [], [(0, 0, 0), (0, 0, 1)]),
        (2, 1, [], [(0, 0, 0), (0, 0, 1), (0, 1, 0)]),
        (2, 1, [(0, 1, 0)], [(0, 1, 0)]),
    ],
    ids=[
        "left-translate",
        "right-translate",
        "closure-side",
        "left-z-reduced",
        "every-right-generator",
        "every-closure-generator",
        "coset-action-side",
    ],
)
def test_orbits_shrunk_cases(p, a, hgens, kgens):
    _check_orbits(p, a, hgens, kgens)


@pytest.mark.parametrize(
    "p, a, hgens, g1gens, dim",
    [
        (2, 1, [(0, 1, 0)], [(0, 1, 0)], 1),
        (2, 1, [(0, 1, 0)], [(1, 0, 0)], 1),
        (2, 1, [(0, 0, 1)], [], 1),
        (2, 1, [(0, 0, 0), (1, 0, 0)], [(1, 0, 0)], 2),
        (2, 1, [], [(0, 0, 0), (0, 0, 1)], 1),
        (2, 2, [], [(0, 0, 0), (0, 0, 2), (0, 0, 1)], 2),
        (3, 1, [(1, 0, 0)], [(1, 0, 1)], 2),
        (2, 1, [(0, 1, 0)], [(0, 1, 1)], 2),
    ],
    ids=[
        "left-translate",
        "right-translate",
        "left-z-reduced",
        "identity-block",
        "every-right-generator",
        "every-closure-generator",
        "conjugation-side",
        "identity-piece-action",
    ],
)
def test_mackey_shrunk_cases(p, a, hgens, g1gens, dim):
    _check_mackey(p, a, hgens, g1gens, dim, 0, False)


@st.composite
def _generator_sets(draw, groups, count):
    p, a = draw(st.sampled_from(groups))
    # Zero coordinates are drawn often, so that proper subgroups are too.
    coord = st.just(0) | st.integers(0, p**a - 1)
    gens = st.lists(st.tuples(coord, coord, coord), max_size=3)
    return (p, a) + tuple(draw(gens) for _ in range(count))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_generator_sets(ORBIT_GROUPS, 2))
def test_orbits_property(case):
    _check_orbits(*case)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    _generator_sets(MACKEY_GROUPS, 2),
    st.sampled_from([1, 2]),
    st.integers(0, 2**16),
    st.booleans(),
)
def test_mackey_property(case, dim, seed, central):
    _check_mackey(*case, dim, seed, central)
