import numpy as np
import pytest

from coherence_lab import finite_groups as fg
from coherence_lab.finite_groups import FiniteGroup, FinModule, Subgroup


@pytest.fixture(scope="module")
def u3f2():
    return FiniteGroup(2, 1)


@pytest.fixture(scope="module")
def u3f3():
    return FiniteGroup(3, 1)


def named(G, *coords):
    return Subgroup(G, [G.index[c] for c in coords])


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


def test_double_cosets_trivial_cases(u3f2):
    G = u3f2
    full = G.full()
    assert fg.double_cosets(G, full, full) == [G.identity]
    trivial = Subgroup(G, [])
    H = named(G, (1, 0, 0))
    # With one side trivial, double cosets are plain cosets of the other.
    assert len(fg.double_cosets(G, trivial, H)) == G.order // H.order


def test_double_cosets_center(u3f2):
    G = u3f2
    center = named(G, (0, 0, 1))
    assert len(fg.double_cosets(G, center, center)) == 4


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
        m = ind.action_of(g)
        assert np.array_equal(np.sort(m.sum(axis=0)), np.ones(G.order))


def test_induce_from_center(u3f2):
    G = u3f2
    full = G.full()
    center = named(G, (0, 0, 1))
    ind, _ = fg.induce(FinModule.trivial(center, 2, 1), full)
    assert ind.dim == 4


def test_restrict(u3f2):
    G = u3f2
    full = G.full()
    M = fg.random_unipotent_module(full, 2, dim=2, seed=5)
    again = fg.restrict(M, full)
    for g in full.elements:
        assert np.array_equal(again.action_of(g), M.action_of(g))
    trivial = Subgroup(G, [])
    res = fg.restrict(M, trivial)
    assert res.dim == M.dim and res.gen_actions == []


def test_restrict_regular_rep_dimension(u3f2):
    G = u3f2
    full = G.full()
    H = named(G, (1, 0, 0))
    reg, _ = fg.induce(FinModule.trivial(Subgroup(G, []), 2, 1), full)
    res = fg.restrict(reg, H)
    # The regular representation restricted to H is [G:H] copies of the
    # regular representation of H: every orbit of H on G is free.
    assert res.dim == G.order
    h = H.generators[0]
    perm = res.action_of(h)
    fixed = np.trace(perm)
    assert fixed == 0 and res.dim // H.order == G.order // H.order


def test_conjugate_module(u3f3):
    G = u3f3
    row = named(G, (1, 0, 0), (0, 0, 1))
    M = fg.random_unipotent_module(row, 3, dim=2, seed=9)
    e = G.identity
    same = fg.conjugate_module(M, e)
    assert same.subgroup.element_set == row.element_set
    central = G.index[(0, 0, 1)]
    cm = fg.conjugate_module(M, central)
    assert cm.subgroup.element_set == row.element_set
    g = G.index[(0, 1, 0)]
    conj = fg.conjugate_module(M, g)
    for x in row.elements:
        gx = G.conjugate(g, x)
        assert np.array_equal(conj.action_of(gx), M.action_of(x))


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
    for g in fg.double_cosets(G, H, G1):
        conj_elems = {G.conjugate(g, x) for x in G1.elements}
        inter = conj_elems & set(H.elements)
        total += (H.order // len(inter)) * M.dim
    assert total == (G.order // G1.order) * M.dim == rep.lhs_dim


def test_coset_rep_check(u3f2, u3f3):
    G = u3f2
    full = G.full()
    assert fg.coset_rep_check(G, full, named(G, (0, 1, 0)))
    assert fg.coset_rep_check(G, named(G, (1, 0, 0)), named(G, (0, 1, 0)))
    assert fg.coset_rep_check(G, named(G, (1, 0, 0)), full)
    H3 = named(u3f3, (0, 0, 1))
    assert fg.coset_rep_check(u3f3, H3, named(u3f3, (1, 0, 0), (0, 0, 1)))


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
    from coherence_lab import fp_linalg

    assert fp_linalg.rank(fp_linalg.FpMatrix.from_numpy(phi, p)) == direct.dim
    for g in full.generators:
        lhs = (direct.action_of(g) @ phi) % p
        rhs = (phi @ outer.action_of(g)) % p
        assert np.array_equal(lhs, rhs)


def test_commutator_identity_cases():
    for p, a in ((2, 1), (3, 1), (2, 2), (5, 1)):
        rep = fg.commutator_identity_report(p, a)
        assert rep.group_identity
        assert rep.algebra_identity
        assert fg.commutator_identity_check(p, a)


def test_commutator_unit_factor_order_matters():
    # Swapping the unit factors is only harmless in F_2[U_3(Z/2)]: the two
    # orders differ by (1+t)(1+s)w^2, and w^2 = 0 forces p = 2, a = 1.
    assert fg.commutator_identity_report(2, 1).printed_order_holds
    assert not fg.commutator_identity_report(3, 1).printed_order_holds
    assert not fg.commutator_identity_report(2, 2).printed_order_holds


def test_commutator_centrality_control(u3f3):
    G = u3f3
    one = fg.AlgebraElement.one(G, 3)
    s = fg.AlgebraElement.of(G, 3, G.index[(1, 0, 0)]) - one
    w = fg.AlgebraElement.of(G, 3, G.index[(0, 0, 1)]) - one
    assert w * s == s * w


def test_commutator_budget():
    with pytest.raises(fg.BudgetExceeded):
        fg.commutator_identity_check(2, 5)


def test_augmentation_basis(u3f2):
    G = u3f2
    full = G.full()
    center = named(G, (0, 0, 1))
    trivial = Subgroup(G, [])
    assert fg.augmentation_basis(G, trivial, 2) == []
    assert len(fg.augmentation_basis(G, full, 2)) == G.order - 1
    assert len(fg.augmentation_basis(G, center, 2)) == G.order - G.order // 2


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


@pytest.mark.parametrize("p, a", [(3, 2), (2, 4)])
def test_closed_form_law_random_pairs_and_triples(p, a):
    G = FiniteGroup(p, a)
    pa = G.pa
    rng = np.random.default_rng(1000 * p + a)
    for i, j, k in rng.integers(0, G.order, size=(10**4, 3)).tolist():
        g, h = G.elements[i], G.elements[j]
        assert G.mul(i, j) == G.index[_tuple_mul(g, h, pa)]
        assert G.inv(i) == G.index[_tuple_inv(g, pa)]
        assert G.mul(G.mul(i, j), k) == G.mul(i, G.mul(j, k))


@pytest.mark.parametrize("p, a", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4)])
def test_full_group_from_three_generators(p, a):
    G = FiniteGroup(p, a)
    full = G.full()
    assert len(full.generators) == 3
    assert full.elements == tuple(range(G.order))


@pytest.mark.parametrize("p, a", [(2, 1), (3, 1), (2, 2), (3, 2), (13, 1)])
def test_selector_orders_closed_form(p, a):
    from coherence_lab.cli import SUBGROUP_SELECTORS, _resolve_subgroup

    G = FiniteGroup(p, a)
    for name, (_, k) in SUBGROUP_SELECTORS.items():
        S = _resolve_subgroup(G, name)
        assert S.order == G.pa**k, name
        if G.order <= 27:
            # Closing all of its elements gives the subgroup back.
            assert Subgroup(G, list(S.elements)).elements == S.elements, name
    if G.order <= 27:
        assert Subgroup(G, list(range(G.order))).elements == G.full().elements


def _double_cosets_by_products(G, H, G1):
    seen, reps = set(), []
    for g in range(G.order):
        if g not in seen:
            reps.append(g)
            seen |= {G.mul(G.mul(h, g), k) for h in H.elements for k in G1.elements}
    return reps


def test_double_cosets_match_products_over_all_selectors(u3f2, u3f3):
    from coherence_lab.cli import SUBGROUP_SELECTORS, _resolve_subgroup

    for G in (u3f2, u3f3):
        subs = [_resolve_subgroup(G, name) for name in SUBGROUP_SELECTORS]
        for H in subs:
            for G1 in subs:
                assert fg.double_cosets(G, H, G1) == _double_cosets_by_products(G, H, G1)


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
    assert np.array_equal(M.action_of(G.index[(8, 0, 0)]), np.array([[1, 2], [0, 1]]))


def test_module_action_along_steps(u3f3):
    G = u3f3
    full = G.full()
    M = fg.random_unipotent_module(full, 3, dim=2, seed=7)
    for x in full.elements:
        for y in full.elements:
            lhs = (M.action_of(x) @ M.action_of(y)) % 3
            assert np.array_equal(lhs, M.action_of(G.mul(x, y)))
