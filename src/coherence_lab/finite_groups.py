"""Finite p-groups, their group algebras over F_p, and restriction of
induced modules across double cosets.

Groups are capped at order 4096 and stored as full element tables with
canonical encodings (unitriangular matrices over Z/p^a flatten to (x, y, z)
tuples), so every check here is exhaustive rather than clever: subgroups are
closed by orbit enumeration, coset representatives are the least canonical
elements of their orbits, and the restriction-of-induction comparison is an
explicit matrix that is checked for equivariance and invertibility.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import fp_linalg

MAX_GROUP_ORDER = 4096


class NotASubgroup(ValueError):
    pass


class BudgetExceeded(ValueError):
    pass


class FiniteGroup:
    """A finite group on canonically ordered element encodings.

    Products and inverses are memoized on demand; the caches only ever fill
    in values of a fixed pure function, so shared read-mostly use is safe.
    """

    def __init__(self, elements: Sequence, mul: Callable, name: str = "G"):
        if len(elements) > MAX_GROUP_ORDER:
            raise BudgetExceeded(f"group order {len(elements)} > {MAX_GROUP_ORDER}")
        self.elements = sorted(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        self._mul_elem = mul
        self.name = name
        self.order = len(self.elements)
        ident = None
        for i, e in enumerate(self.elements):
            if all(mul(e, f) == f for f in self.elements[: min(4, self.order)]):
                if all(mul(e, f) == f == mul(f, e) for f in self.elements):
                    ident = i
                    break
        if ident is None:
            raise ValueError("no identity element")
        self.identity = ident
        self._inv: List[Optional[int]] = [None] * self.order
        self._mul_cache: Dict[Tuple[int, int], int] = {}

    def mul(self, i: int, j: int) -> int:
        key = (i, j)
        k = self._mul_cache.get(key)
        if k is None:
            prod = self._mul_elem(self.elements[i], self.elements[j])
            k = self.index[prod]
            self._mul_cache[key] = k
        return k

    def inv(self, i: int) -> int:
        if self._inv[i] is None:
            for j in range(self.order):
                if self.mul(i, j) == self.identity:
                    self._inv[i] = j
                    break
        j = self._inv[i]
        assert j is not None
        return j

    def conjugate(self, g: int, x: int) -> int:
        return self.mul(self.mul(g, x), self.inv(g))

    @classmethod
    def unitriangular(cls, p: int, a: int = 1) -> "FiniteGroup":
        """U_3(Z/p^a): upper unitriangular 3x3 matrices, encoded (x, y, z)
        for the matrix with x at (1,2), y at (2,3), z at (1,3)."""
        if not fp_linalg.is_prime(p):
            raise ValueError(f"p={p} is not prime")
        pa = p**a
        if pa**3 > MAX_GROUP_ORDER:
            raise BudgetExceeded(f"order {pa**3} exceeds {MAX_GROUP_ORDER}")
        elements = [
            (x, y, z) for x in range(pa) for y in range(pa) for z in range(pa)
        ]

        def mul(g, h):
            return (
                (g[0] + h[0]) % pa,
                (g[1] + h[1]) % pa,
                (g[2] + h[2] + g[0] * h[1]) % pa,
            )

        G = cls(elements, mul, name=f"U3(Z/{pa})")
        G.p = p
        G.pa = pa
        return G


class Subgroup:
    """A membership-closed subset with generator words for every element."""

    def __init__(self, parent: FiniteGroup, generators: Sequence[int]):
        self.parent = parent
        self.generators = tuple(dict.fromkeys(int(g) for g in generators))
        words: Dict[int, Tuple[int, ...]] = {parent.identity: tuple()}
        frontier = [parent.identity]
        while frontier:
            nxt = []
            for e in frontier:
                for gi, g in enumerate(self.generators):
                    f = parent.mul(e, g)
                    if f not in words:
                        words[f] = words[e] + (gi,)
                        nxt.append(f)
            frontier = nxt
        self.words = words
        self.elements = tuple(sorted(words))
        self.element_set = frozenset(self.elements)
        self.order = len(self.elements)

    def contains(self, i: int) -> bool:
        return i in self.element_set

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.name})"


def subgroup_from_elements(parent: FiniteGroup, elements: Sequence[int]) -> Subgroup:
    """Subgroup generated by the given elements (their closure)."""
    sub = Subgroup(parent, sorted(dict.fromkeys(elements)))
    return sub


def _assert_subgroup_of(outer: Subgroup, inner: Subgroup) -> None:
    if not inner.element_set <= outer.element_set:
        raise NotASubgroup("claimed subgroup is not contained")


def left_coset_reps(big: Subgroup, small: Subgroup) -> List[int]:
    """Representatives of big/small (cosets g*small), least element first."""
    _assert_subgroup_of(big, small)
    G = big.parent
    seen = set()
    reps = []
    for g in big.elements:
        if g in seen:
            continue
        reps.append(g)
        for h in small.elements:
            seen.add(G.mul(g, h))
    return reps


def right_coset_reps(big: Subgroup, small: Subgroup) -> List[int]:
    """Representatives of small\\big (cosets small*g), least element first."""
    _assert_subgroup_of(big, small)
    G = big.parent
    seen = set()
    reps = []
    for g in big.elements:
        if g in seen:
            continue
        reps.append(g)
        for h in small.elements:
            seen.add(G.mul(h, g))
    return reps


def double_cosets(G: FiniteGroup, H: Subgroup, G1: Subgroup) -> List[int]:
    """Representatives of H\\G/G1, the least canonical element per orbit."""
    seen = set()
    reps = []
    for g in range(G.order):
        if g in seen:
            continue
        reps.append(g)
        for h in H.elements:
            hg = G.mul(h, g)
            for k in G1.elements:
                seen.add(G.mul(hg, k))
    return reps


class AlgebraElement:
    """An element of F_p[G]: a coefficient for every group element."""

    __slots__ = ("group", "p", "coeffs")

    def __init__(self, group: FiniteGroup, p: int, coeffs: Sequence[int]):
        if len(coeffs) != group.order:
            raise ValueError("coefficient vector length must equal |G|")
        self.group = group
        self.p = p
        self.coeffs = [c % p for c in coeffs]

    @classmethod
    def zero(cls, group: FiniteGroup, p: int) -> "AlgebraElement":
        return cls(group, p, [0] * group.order)

    @classmethod
    def of(cls, group: FiniteGroup, p: int, element_index: int, c: int = 1):
        v = [0] * group.order
        v[element_index] = c % p
        return cls(group, p, v)

    @classmethod
    def one(cls, group: FiniteGroup, p: int) -> "AlgebraElement":
        return cls.of(group, p, group.identity)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(
            self.group, self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(
            self.group, self.p, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.group, self.p, [-a for a in self.coeffs])

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = [0] * self.group.order
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        k = self.group.mul(i, j)
                        out[k] = (out[k] + a * b) % self.p
        return AlgebraElement(self.group, self.p, out)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and other.group is self.group
            and other.p == self.p
            and other.coeffs == self.coeffs
        )

    def __repr__(self) -> str:
        parts = [
            f"{c}*[{self.group.elements[i]}]"
            for i, c in enumerate(self.coeffs)
            if c
        ]
        return " + ".join(parts) if parts else "0"


class FinModule:
    """A module over F_p for a subgroup, given by generator action matrices.

    Construction factorizes every subgroup element through the generator
    words and verifies both invertibility of the generator matrices and the
    homomorphism property on the full element list, so an inconsistent
    action is rejected up front.
    """

    def __init__(
        self,
        subgroup: Subgroup,
        p: int,
        gen_actions: Sequence[Sequence[Sequence[int]]],
        check: bool = True,
        dim: Optional[int] = None,
    ):
        if len(gen_actions) != len(subgroup.generators):
            raise ValueError("one action matrix per subgroup generator required")
        self.subgroup = subgroup
        self.p = p
        self.gen_actions = [np.array(m, dtype=np.int64) % p for m in gen_actions]
        if self.gen_actions:
            self.dim = int(self.gen_actions[0].shape[0])
        elif dim is not None:
            self.dim = dim
        else:
            raise ValueError("dim required for a generator-free subgroup")
        for m in self.gen_actions:
            if m.shape != (self.dim, self.dim):
                raise ValueError("action matrices must be square of equal size")
        self._cache: Dict[int, np.ndarray] = {}
        if check:
            self._validate()

    @classmethod
    def trivial(cls, subgroup: Subgroup, p: int, dim: int = 1) -> "FinModule":
        eye = np.eye(dim, dtype=np.int64)
        return cls(
            subgroup, p, [eye] * len(subgroup.generators), check=False, dim=dim
        )

    def action_of(self, element_index: int) -> np.ndarray:
        m = self._cache.get(element_index)
        if m is None:
            word = self.subgroup.words.get(element_index)
            if word is None:
                raise NotASubgroup(f"element {element_index} outside the subgroup")
            m = np.eye(self.dim, dtype=np.int64)
            for gi in word:
                m = (m @ self.gen_actions[gi]) % self.p
            self._cache[element_index] = m
        return m

    def _validate(self) -> None:
        for m in self.gen_actions:
            mat = fp_linalg.FpMatrix.from_numpy(m, self.p)
            if fp_linalg.rank(mat) != self.dim:
                raise ValueError("action matrix is singular")
        G = self.subgroup.parent
        for x in self.subgroup.elements:
            ax = self.action_of(x)
            for y in self.subgroup.elements:
                prod = G.mul(x, y)
                if not np.array_equal(
                    (ax @ self.action_of(y)) % self.p, self.action_of(prod)
                ):
                    raise ValueError("generator actions violate the group law")


def induce(module: FinModule, big: Subgroup) -> Tuple[FinModule, List[int]]:
    """Induced module over `big`, with basis g_i (x) e_j over the left coset
    representatives (returned alongside, in order).

    The action permutes the coset blocks and twists by the small-group part:
    g.(g_i (x) m) = g_k (x) ((g_k^-1 g g_i).m) where g g_i lies in g_k*small.
    """
    small = module.subgroup
    _assert_subgroup_of(big, small)
    G = big.parent
    reps = left_coset_reps(big, small)
    rep_of: Dict[int, int] = {}
    for k, r in enumerate(reps):
        for h in small.elements:
            rep_of[G.mul(r, h)] = k
    dim = len(reps) * module.dim
    p = module.p
    actions = []
    for g in big.generators:
        m = np.zeros((dim, dim), dtype=np.int64)
        for i, gi in enumerate(reps):
            prod = G.mul(g, gi)
            k = rep_of[prod]
            gamma = G.mul(G.inv(reps[k]), prod)
            block = module.action_of(gamma)
            m[
                k * module.dim : (k + 1) * module.dim,
                i * module.dim : (i + 1) * module.dim,
            ] = block
        actions.append(m)
    return FinModule(big, p, actions, check=False, dim=dim), reps


def restrict(module: FinModule, small: Subgroup) -> FinModule:
    """The same space as a module over a smaller subgroup."""
    _assert_subgroup_of(module.subgroup, small)
    actions = [module.action_of(g) for g in small.generators]
    return FinModule(small, module.p, actions, check=False, dim=module.dim)


def conjugate_module(module: FinModule, g: int) -> FinModule:
    """Module over g*H*g^-1 where ghg^-1 acts as h acted before."""
    G = module.subgroup.parent
    gens = [G.conjugate(g, x) for x in module.subgroup.generators]
    conj = Subgroup(G, gens)
    expected = {G.conjugate(g, x) for x in module.subgroup.elements}
    if set(conj.elements) != expected:
        raise AssertionError("conjugated subgroup closure mismatch")
    return FinModule(conj, module.p, module.gen_actions, check=False, dim=module.dim)


@dataclass
class MackeyReport:
    lhs_dim: int
    rhs_dim: int
    dims_match: bool
    psi_equivariant: bool
    psi_bijective: bool
    double_coset_count: int

    @property
    def ok(self) -> bool:
        return self.dims_match and self.psi_equivariant and self.psi_bijective


def mackey_check(
    G: FiniteGroup, H: Subgroup, G1: Subgroup, module: FinModule
) -> MackeyReport:
    """Compare restriction-of-induction with the double-coset decomposition.

    Builds Res_H Ind_G1^G M and the direct sum over double-coset
    representatives g of Ind_{gG1g^-1 cap H}^H (M conjugated by g), together
    with the comparison map that sends r (x) (g (x) m) to (r g) (x) m, and
    checks exactly that this map intertwines the H-action and is bijective
    over F_p.
    """
    if module.subgroup.element_set != G1.element_set:
        raise ValueError("module must live over G1")
    p = module.p
    full = Subgroup(G, list(range(G.order)))
    lhs_module, lhs_reps = induce(module, full)
    lhs_dim = lhs_module.dim
    lhs_block: Dict[int, int] = {}
    for k, r in enumerate(lhs_reps):
        for h in G1.elements:
            lhs_block[G.mul(r, h)] = k

    xreps = double_cosets(G, H, G1)
    rhs_pieces = []  # (H/K_g reps, conjugated module restricted to K_g, g)
    for g in xreps:
        conj = conjugate_module(module, g)
        inter_elems = [e for e in conj.subgroup.elements if H.contains(e)]
        K = subgroup_from_elements(G, inter_elems)
        if set(K.elements) != set(inter_elems):
            raise NotASubgroup("intersection is not closed")
        piece = restrict(conj, K)
        hreps = left_coset_reps(H, K)
        rhs_pieces.append((hreps, piece, g))
    rhs_dim = sum(len(hreps) * piece.dim for hreps, piece, _ in rhs_pieces)

    d = module.dim
    psi = np.zeros((lhs_dim, rhs_dim), dtype=np.int64)
    col = 0
    for hreps, piece, g in rhs_pieces:
        for hi in hreps:
            hg = G.mul(hi, g)
            k = lhs_block[hg]
            gamma = G.mul(G.inv(lhs_reps[k]), hg)
            block = module.action_of(gamma)
            psi[k * d : (k + 1) * d, col : col + d] = block
            col += d

    dims_match = lhs_dim == rhs_dim

    # H-action on the right side is the block direct sum of the inductions.
    inductions = [induce(piece, H)[0] for _, piece, _ in rhs_pieces]

    def rhs_action(h: int) -> np.ndarray:
        m = np.zeros((rhs_dim, rhs_dim), dtype=np.int64)
        offset = 0
        for ind_piece in inductions:
            sz = ind_piece.dim
            m[offset : offset + sz, offset : offset + sz] = ind_piece.action_of(h)
            offset += sz
        return m

    equivariant = True
    for h in H.generators:
        lhs_act = lhs_module.action_of(h)
        if not np.array_equal((lhs_act @ psi) % p, (psi @ rhs_action(h)) % p):
            equivariant = False
            break

    bijective = dims_match and fp_linalg.rank(
        fp_linalg.FpMatrix.from_numpy(psi, p)
    ) == lhs_dim
    return MackeyReport(
        lhs_dim=lhs_dim,
        rhs_dim=rhs_dim,
        dims_match=dims_match,
        psi_equivariant=equivariant,
        psi_bijective=bijective,
        double_coset_count=len(xreps),
    )


def coset_rep_check(G: FiniteGroup, H: Subgroup, G1: Subgroup) -> bool:
    """Verify the glued representative set Z = {a g} hits every right
    H-coset exactly once, where g runs over double-coset representatives and
    a over representatives of (gG1g^-1 cap H)\\gG1g^-1."""
    zs = []
    for g in double_cosets(G, H, G1):
        conj_elems = sorted(G.conjugate(g, x) for x in G1.elements)
        K = subgroup_from_elements(G, conj_elems)
        inter = subgroup_from_elements(
            G, [e for e in K.elements if H.contains(e)]
        )
        for a in right_coset_reps(K, inter):
            zs.append(G.mul(a, g))
    full = Subgroup(G, list(range(G.order)))
    expected = len(right_coset_reps(full, H))
    cosets = set()
    for z in zs:
        cosets.add(frozenset(G.mul(h, z) for h in H.elements))
    return len(zs) == expected and len(cosets) == len(zs)


@dataclass
class CommutatorReport:
    p: int
    a: int
    group_identity: bool
    algebra_identity: bool
    printed_order_holds: bool

    @property
    def ok(self) -> bool:
        return self.group_identity and self.algebra_identity


def commutator_identity_report(p: int, a: int) -> CommutatorReport:
    """Exact convolution check of the Heisenberg commutator identity.

    With s = g12 - 1, t = g23 - 1, w = g13 - 1 in F_p[U_3(Z/p^a)], the group
    law gives (1+s)(1+t) = (1+w)(1+t)(1+s), whose rearrangement is

        s t - t s = (1+t)(1+s) w.

    The variant with the unit factors in the other order, (1+s)(1+t) w,
    differs by (1+t)(1+s) w^2 and only holds when p = 2, a = 1; the report
    records both so callers can see the distinction.
    """
    if p**(3 * a) > MAX_GROUP_ORDER:
        raise BudgetExceeded(f"group order {p**(3*a)} exceeds {MAX_GROUP_ORDER}")
    G = FiniteGroup.unitriangular(p, a)
    pa = G.pa
    gs = G.index[(1 % pa, 0, 0)]
    gt = G.index[(0, 1 % pa, 0)]
    gw = G.index[(0, 0, 1 % pa)]
    comm = G.mul(G.mul(G.mul(gs, gt), G.inv(gs)), G.inv(gt))
    group_identity = comm == gw

    one = AlgebraElement.one(G, p)
    S = AlgebraElement.of(G, p, gs) - one
    T = AlgebraElement.of(G, p, gt) - one
    W = AlgebraElement.of(G, p, gw) - one
    lhs = S * T - T * S
    corrected = (one + T) * (one + S) * W
    printed = (one + S) * (one + T) * W
    return CommutatorReport(
        p=p,
        a=a,
        group_identity=group_identity,
        algebra_identity=lhs == corrected,
        printed_order_holds=lhs == printed,
    )


def commutator_identity_check(p: int, a: int) -> bool:
    """True iff the group commutator identity and its algebra rearrangement
    hold exactly (see commutator_identity_report)."""
    return commutator_identity_report(p, a).ok


def augmentation_basis(G: FiniteGroup, H: Subgroup, p: int) -> List[List[int]]:
    """F_p-basis of the left ideal of F_p[G] generated by {h - 1, h in H}.

    Computed as the row space of all g(h - 1) = [gh] - [g]; nothing about
    the dimension is assumed.
    """
    rows = []
    for g in range(G.order):
        for h in H.elements:
            if h == G.identity:
                continue
            v = [0] * G.order
            v[G.mul(g, h)] += 1
            v[g] -= 1
            rows.append(v)
    return fp_linalg.RowSpace(rows, p, G.order).rows.tolist()


def random_unipotent_module(
    subgroup: Subgroup, p: int, dim: int = 2, seed: int = 0
) -> FinModule:
    """A seeded 2-dimensional module for a subgroup of a unitriangular group.

    The (1,2) and (2,3) coordinates are additive characters of U_3(Z/p^a),
    so any mod-p linear combination lambda of them is a homomorphism to
    (F_p, +); the action g -> P [[1, lambda(g)], [0, 1]] P^-1 with a random
    invertible P is then a genuine (generally nontrivial) representation.
    """
    if dim == 1:
        return FinModule.trivial(subgroup, p, 1)
    if dim != 2:
        raise ValueError("only dims 1 and 2 are provided")
    rng = random.Random(seed)
    G = subgroup.parent
    c1, c2 = rng.randrange(p), rng.randrange(p)
    while True:
        P = np.array(
            [[rng.randrange(p) for _ in range(2)] for _ in range(2)], dtype=np.int64
        )
        det = (P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0]) % p
        if det:
            break
    det_inv = pow(int(det), p - 2, p)
    Pinv = (
        det_inv * np.array([[P[1, 1], -P[0, 1]], [-P[1, 0], P[0, 0]]], dtype=np.int64)
    ) % p
    actions = []
    for g in subgroup.generators:
        x, y, _ = G.elements[g]
        lam = (c1 * x + c2 * y) % p
        m = np.array([[1, lam], [0, 1]], dtype=np.int64)
        actions.append((P @ m @ Pinv) % p)
    return FinModule(subgroup, p, actions, dim=2)
