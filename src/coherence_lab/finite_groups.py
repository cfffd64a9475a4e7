"""Finite p-groups, their group algebras over F_p, and restriction of
induced modules across double cosets.

The groups are U_3(Z/p^a), capped at order 4096. An element is the
unitriangular matrix with x at (1,2), y at (2,3) and z at (1,3), encoded
(x, y, z) and indexed x*p^2a + y*p^a + z, the sorted order of the
encodings; products and inverses are closed-form index arithmetic, so no
multiplication table is stored. Every check here is still exhaustive
rather than clever: subgroups are closed by orbit enumeration from their
generators, coset representatives are the least elements of their orbits,
and the restriction-of-induction comparison is an explicit matrix that is
checked for equivariance and invertibility.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import fp_linalg

MAX_GROUP_ORDER = 4096


class NotASubgroup(ValueError):
    pass


class BudgetExceeded(ValueError):
    pass


class FiniteGroup:
    """U_3(Z/p^a): upper unitriangular 3x3 matrices over Z/p^a.

    The product (x1, y1, z1)(x2, y2, z2) is (x1+x2, y1+y2, z1+z2+x1*y2) and
    the inverse of (x, y, z) is (-x, -y, xy-z), all mod p^a; `mul` and `inv`
    apply them to indices directly. The identity is index 0.
    """

    def __init__(self, p: int, a: int = 1):
        if not fp_linalg.is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if a < 0:
            raise ValueError(f"a={a} is negative")
        # p >= 2, so a >= 5 is over the cap; testing a first never raises a
        # huge p to a huge power.
        if a >= 5 or p ** (3 * a) > MAX_GROUP_ORDER:
            raise BudgetExceeded(f"order {p}^{3 * a} exceeds {MAX_GROUP_ORDER}")
        pa = p**a
        self.p = p
        self.pa = pa
        self._pa2 = pa * pa
        self.name = f"U3(Z/{pa})"
        self.order = pa**3
        self.elements = [
            (x, y, z) for x in range(pa) for y in range(pa) for z in range(pa)
        ]
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.identity = 0
        # Read by the benchmark tracer; products are not memoised, so it stays empty.
        self._mul_cache: Dict[Tuple[int, int], int] = {}

    def mul(self, i: int, j: int) -> int:
        pa = self.pa
        x1, r = divmod(i, self._pa2)
        y1, z1 = divmod(r, pa)
        x2, r = divmod(j, self._pa2)
        y2, z2 = divmod(r, pa)
        return ((x1 + x2) % pa * pa + (y1 + y2) % pa) * pa + (z1 + z2 + x1 * y2) % pa

    def inv(self, i: int) -> int:
        pa = self.pa
        x, r = divmod(i, self._pa2)
        y, z = divmod(r, pa)
        return (-x % pa * pa + -y % pa) * pa + (x * y - z) % pa

    def conjugate(self, g: int, x: int) -> int:
        return self.mul(self.mul(g, x), self.inv(g))

    def full(self) -> "Subgroup":
        """The whole group, generated by e12, e23 and e13."""
        one = 1 % self.pa
        return Subgroup(
            self, [self.index[c] for c in ((one, 0, 0), (0, one, 0), (0, 0, one))]
        )


class Subgroup:
    """A membership-closed subset reached from the identity by generators.

    `steps` maps every element but the identity to (predecessor, generator
    position): the element is the predecessor times that generator.
    """

    def __init__(self, parent: FiniteGroup, generators: Sequence[int]):
        self.parent = parent
        self.generators = tuple(dict.fromkeys(int(g) for g in generators))
        steps: Dict[int, Optional[Tuple[int, int]]] = {parent.identity: None}
        frontier = [parent.identity]
        while frontier:
            nxt = []
            for e in frontier:
                for gi, g in enumerate(self.generators):
                    f = parent.mul(e, g)
                    if f not in steps:
                        steps[f] = (e, gi)
                        nxt.append(f)
            frontier = nxt
        self.steps = steps
        self.elements = tuple(sorted(steps))
        self.element_set = frozenset(self.elements)
        self.order = len(self.elements)

    def contains(self, i: int) -> bool:
        return i in self.element_set

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.name})"


def subgroup_from_elements(parent: FiniteGroup, elements: Sequence[int]) -> Subgroup:
    """Subgroup generated by the given elements (their closure).

    Only an element outside the closure of the earlier ones becomes a
    generator, so a p-group of order p^n gets at most n of them.
    """
    sub = Subgroup(parent, [])
    for e in sorted(set(elements)):
        if not sub.contains(e):
            sub = Subgroup(parent, sub.generators + (e,))
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
    """Representatives of H\\G/G1, the least canonical element per orbit.

    Each orbit H g G1 is closed from g under left multiplication by the
    generators of H and right multiplication by those of G1.
    """
    seen = set()
    reps = []
    for g in range(G.order):
        if g in seen:
            continue
        reps.append(g)
        seen.add(g)
        frontier = [g]
        while frontier:
            nxt = []
            for x in frontier:
                for y in [G.mul(h, x) for h in H.generators] + [
                    G.mul(x, k) for k in G1.generators
                ]:
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
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

    An element acts as the product of the generator matrices along its
    path in `Subgroup.steps`. Construction verifies that the generator
    matrices are invertible and that x*g acts as x followed by g for every
    element x and generator g; by induction on path length that is the whole
    homomorphism property, so an inconsistent action is rejected up front.
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
        self._eye = np.eye(self.dim, dtype=np.int64)
        self._cache: Dict[int, np.ndarray] = {subgroup.parent.identity: self._eye}
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
        if m is not None:
            return m
        if not self.subgroup.contains(element_index):
            raise NotASubgroup(f"element {element_index} outside the subgroup")
        # Walk back to an element whose matrix is known, then multiply forward.
        path = []
        e = element_index
        while e not in self._cache:
            prev, gi = self.subgroup.steps[e]
            path.append((e, gi))
            e = prev
        m = self._cache[e]
        for e, gi in reversed(path):
            a = self.gen_actions[gi]
            m = a if m is self._eye else (m @ a) % self.p
            self._cache[e] = m
        return m

    def _validate(self) -> None:
        for m in self.gen_actions:
            mat = fp_linalg.FpMatrix.from_numpy(m, self.p)
            if fp_linalg.rank(mat) != self.dim:
                raise ValueError("action matrix is singular")
        G = self.subgroup.parent
        for x in self.subgroup.elements:
            ax = self.action_of(x)
            for g, a in zip(self.subgroup.generators, self.gen_actions):
                if not np.array_equal((ax @ a) % self.p, self.action_of(G.mul(x, g))):
                    raise ValueError("generator actions violate the group law")


def induce(
    module: FinModule, big: Subgroup, over: Optional[Subgroup] = None
) -> Tuple[FinModule, List[int]]:
    """Induced module over `big`, with basis g_i (x) e_j over the left coset
    representatives (returned alongside, in order).

    The action permutes the coset blocks and twists by the small-group part:
    g.(g_i (x) m) = g_k (x) ((g_k^-1 g g_i).m) where g g_i lies in g_k*small.
    With `over`, a subgroup of `big`, the result is the restriction to it:
    matrices are built for the generators of `over` only.
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
    over = big if over is None else over
    _assert_subgroup_of(big, over)
    actions = []
    for g in over.generators:
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
    return FinModule(over, p, actions, check=False, dim=dim), reps


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
    lhs_module, lhs_reps = induce(module, G.full(), over=H)
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
        K = Subgroup(G, [G.conjugate(g, x) for x in G1.generators])
        inter = subgroup_from_elements(
            G, [e for e in K.elements if H.contains(e)]
        )
        for a in right_coset_reps(K, inter):
            zs.append(G.mul(a, g))
    expected = len(right_coset_reps(G.full(), H))
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
    G = FiniteGroup(p, a)
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
