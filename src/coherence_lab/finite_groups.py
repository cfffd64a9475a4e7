"""Finite p-groups, their group algebras over F_p, and restriction of
induced modules across double cosets.

The groups are U_3(Z/p^a), capped at order `MAX_GROUP_ORDER`. An element is
the unitriangular matrix with x at (1,2), y at (2,3) and z at (1,3), encoded
(x, y, z) and indexed x*p^2a + y*p^a + z, the sorted order of the
encodings; `FiniteGroup.elements` holds every decoded triple, so no
multiplication table is stored. Products, inverses and conjugates read the
triples there and apply the closed-form law straight to an index, with
no method call per product. Subgroups are closed by orbit enumeration
from their generators, a left or right coset is enumerated once from its
least element over the subgroup's elements, and the double cosets H\\G/G1
are the orbits of H's generators on the cosets G/G1. Each class of a
partition is represented by its least element. Two checks rest on
structure rather than on every element: a module is validated by the
polycyclic relations of its subgroup along the central series of `_lead`,
and the Mackey pieces close each distinct conjugate gG1g^-1 once.
A matrix is a tuple of rows, each a tuple of ints in [0, p); it becomes
{column: value} rows only to be ranked. A group-algebra element is held by
its nonzero terms. Induced actions and the restriction-of-induction
comparison map are block maps: each sends a coset block to one other block
through one d x d matrix, so equivariance and invertibility are checked
block by block, exactly. A Mackey check decomposes H\\G/G1 once into
pieces (g, gG1g^-1, K_g = gG1g^-1 cap H), which the comparison map and the
glued coset-representative check share; pieces with the same conjugate
share its subgroup objects and their cosets. It holds one module, the
caller's: piece g reads its blocks from it, gamma in K_g acting as
g^-1 gamma g does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import fp_linalg
from .echelon import is_prime

MAX_GROUP_ORDER = 4096

# A square matrix over F_p: a tuple of rows of ints in [0, p).
Matrix = Tuple[Tuple[int, ...], ...]


def _matmul(a: Matrix, b: Matrix, p: int) -> Matrix:
    cols = list(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) % p for col in cols) for row in a)


def _eye(dim: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))


def _rank(m: Matrix, p: int) -> int:
    """The rank over F_p of a square matrix, through its nonzero entries."""
    rows = [{c: v for c, v in enumerate(row) if v} for row in m]
    return fp_linalg.rank(fp_linalg.FpMatrix(rows, len(m), p))


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
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if a < 0:
            raise ValueError(f"a={a} is negative")
        # p >= 2, so the order is over the cap whenever 2^(3a) is, that is
        # whenever 3a >= cap.bit_length(); testing that first never raises a
        # huge p to a huge power.
        if 3 * a >= MAX_GROUP_ORDER.bit_length() or p ** (3 * a) > MAX_GROUP_ORDER:
            raise BudgetExceeded(f"order {p}^{3 * a} exceeds {MAX_GROUP_ORDER}")
        pa = p**a
        self.p = p
        self.a = a
        self.pa = pa
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
        x1, y1, z1 = self.elements[i]
        x2, y2, z2 = self.elements[j]
        return ((x1 + x2) % pa * pa + (y1 + y2) % pa) * pa + (z1 + z2 + x1 * y2) % pa

    def inv(self, i: int) -> int:
        pa = self.pa
        x, y, z = self.elements[i]
        return (-x % pa * pa + -y % pa) * pa + (x * y - z) % pa

    def conjugate(self, g: int, x: int) -> int:
        """g*x*g^-1: with g = (a, b, c) and x = (u, v, w), (u, v, w + av - bu)."""
        a, b, _ = self.elements[g]
        u, v, w = self.elements[x]
        return x - w + (w + a * v - b * u) % self.pa

    def full(self) -> "Subgroup":
        """The whole group, generated by e12, e23 and e13."""
        one = 1 % self.pa
        return Subgroup(
            self, [self.index[c] for c in ((one, 0, 0), (0, one, 0), (0, 0, one))]
        )


class Subgroup:
    """A membership-closed subset reached from the identity by generators.

    `steps` maps every element but the identity to (predecessor, generator
    position): the element is the predecessor times that generator. The
    closure is breadth first, and e*k = (x+a, y+b, z+c+xb) for e = (x, y, z)
    and a generator k = (a, b, c) is computed inline.
    """

    def __init__(self, parent: FiniteGroup, generators: Sequence[int]):
        self.parent = parent
        self.generators = tuple(dict.fromkeys(int(g) for g in generators))
        els, pa = parent.elements, parent.pa
        gens = [(gi, *els[g]) for gi, g in enumerate(self.generators)]
        steps: Dict[int, Optional[Tuple[int, int]]] = {parent.identity: None}
        frontier = [parent.identity]
        while frontier:
            nxt = []
            for e in frontier:
                x, y, z = els[e]
                for gi, a, b, c in gens:
                    f = ((x + a) % pa * pa + (y + b) % pa) * pa + (z + c + x * b) % pa
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


def _lead(G: FiniteGroup, e: int) -> Tuple[int, int]:
    """(depth, leading exponent) of e in the central series of G
    N_0 > N_1 > ... > N_3a = 1, where N_3k holds the (x, y, z) with p^k
    dividing all three, N_3k+1 those of N_3k with p^(k+1) dividing x, and
    N_3k+2 those with p^(k+1) dividing x and y. Each factor has order p. The
    depth is the i with e in N_i outside N_i+1, and the exponent is the
    coordinate that leaves N_i+1, over p^k, mod p. The identity has depth 3a."""
    p, q = G.p, 1
    x, y, z = G.elements[e]
    for k in range(G.a):
        r = q * p
        if x % r:
            return 3 * k, x // q % p
        if y % r:
            return 3 * k + 1, y // q % p
        if z % r:
            return 3 * k + 2, z // q % p
        q = r
    return 3 * G.a, 0


def _power(G: FiniteGroup, e: int, k: int) -> int:
    """e^k for k >= 0, by k - 1 products."""
    return reduce(G.mul, [e] * k) if k else G.identity


def _pcgs(S: Subgroup) -> List[Tuple[int, int]]:
    """An induced polycyclic generating sequence of S along `_lead`'s
    series, as (element, depth) pairs: one element per depth that S meets,
    by ascending depth, each raised to have leading exponent 1. Each factor
    of S cap N_i over S cap N_i+1 has order 1 or p, and any element of S of
    depth i generates it when it is p, so S meets exactly n depths for
    |S| = p^n and the scan stops at the n-th (Holt, Eick & O'Brien, Handbook
    of Computational Group Theory, ch. 8)."""
    G = S.parent
    first: Dict[int, Tuple[int, int]] = {}
    for e in S.elements:
        depth, lead = _lead(G, e)
        if depth < 3 * G.a:
            first.setdefault(depth, (e, lead))
        if G.p ** len(first) == S.order:
            break
    else:
        raise AssertionError("polycyclic sequence does not match the order")
    return [
        (_power(G, e, pow(lead, -1, G.p)), depth)
        for depth, (e, lead) in sorted(first.items())
    ]


def _exponents(G: FiniteGroup, pcgs: Sequence[Tuple[int, int]], e: int) -> List[int]:
    """The exponents of e = c_1^k_1 ... c_n^k_n over an induced pcgs, by
    sifting: k_m is e's leading exponent if its depth is c_m's, else 0, and
    c_m^-k_m e goes on to c_m+1."""
    exps = []
    for c, c_depth in pcgs:
        depth, lead = _lead(G, e)
        k = lead if depth == c_depth else 0
        exps.append(k)
        if k:
            e = G.mul(G.inv(_power(G, c, k)), e)
    if e != G.identity:
        raise AssertionError("element outside the polycyclic sequence's group")
    return exps


def _pc_relations(n: int, p: int) -> List[List[Tuple[int, int]]]:
    """The relation words of a polycyclic presentation on c_1..c_n of
    relative orders p, as (position, exponent) factors: the powers c_j^p and
    the products c_k c_j for j < k. Each is equated with its value's normal
    form; for c_k c_j that is c_j times the normal form of c_j^-1 c_k c_j."""
    powers = [[(j, p)] for j in range(n)]
    return powers + [[(k, 1), (j, 1)] for j in range(n) for k in range(j + 1, n)]


def _assert_subgroup_of(outer: Subgroup, inner: Subgroup) -> None:
    if not inner.element_set <= outer.element_set:
        raise NotASubgroup("claimed subgroup is not contained")


# The least element of each coset, ascending, and element -> its coset's position.
Cosets = Tuple[List[int], Dict[int, int]]


def _cosets(G: FiniteGroup, domain: Iterable[int], K: Subgroup, side: str) -> Cosets:
    """The left cosets uK (`side` "left") or right cosets Ku ("right") of K
    that make up `domain`, which must be ascending and a union of them.
    Each is enumerated once from its least element u = (x, y, z), one
    translate per element k = (a, b, c) of K: u*k = (x+a, y+b, z+c+xb),
    k*u = (a+x, b+y, c+z+ay)."""
    els, pa, left = G.elements, G.pa, side == "left"
    ks = [(a, b, c, b if left else a) for a, b, c in map(els.__getitem__, K.elements)]
    reps: List[int] = []
    label: Dict[int, int] = {}
    for u in domain:
        if u not in label:
            n = len(reps)
            reps.append(u)
            x, y, z = els[u]
            t = x if left else y
            for a, b, c, s in ks:
                label[((x + a) % pa * pa + (y + b) % pa) * pa + (z + c + t * s) % pa] = n
    return reps, label


def double_cosets(G: FiniteGroup, H: Subgroup, cosets: Cosets) -> List[int]:
    """Representatives of H\\G/G1, the least element of each, ascending,
    read off `cosets`, the left cosets G/G1 from `_cosets`: HgG1 is the
    orbit of gG1 under gG1 -> hgG1 (Serre, 7.3), found by one translate h*u
    of a coset's least element u per generator h of H. The cosets are
    visited by ascending least element, so an orbit's first is its least."""
    reps, label = cosets
    els, pa = G.elements, G.pa
    hgens = [els[h] for h in H.generators]
    seen = [False] * len(reps)
    out: List[int] = []
    for i, u in enumerate(reps):
        if not seen[i]:
            out.append(u)
            seen[i] = True
            stack = [i]
            while stack:
                x, y, z = els[reps[stack.pop()]]
                for a, b, c in hgens:
                    j = label[((a + x) % pa * pa + (b + y) % pa) * pa + (c + z + a * y) % pa]
                    if not seen[j]:
                        seen[j] = True
                        stack.append(j)
    return out


class AlgebraElement:
    """An element of F_p[G], held as `coeffs`: {element index: coefficient}
    for its nonzero terms, each coefficient in [1, p)."""

    __slots__ = ("group", "p", "coeffs")

    def __init__(self, group: FiniteGroup, p: int, coeffs: Dict[int, int]):
        if not all(0 <= g < group.order for g in coeffs):
            raise ValueError("element index outside the group")
        self.group = group
        self.p = p
        self.coeffs = {g: v for g, c in coeffs.items() if (v := c % p)}

    @classmethod
    def of(cls, group: FiniteGroup, p: int, element_index: int, c: int = 1):
        return cls(group, p, {element_index: c})

    @classmethod
    def one(cls, group: FiniteGroup, p: int) -> "AlgebraElement":
        return cls.of(group, p, group.identity)

    def _plus(self, other: "AlgebraElement", sign: int) -> "AlgebraElement":
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out.get(g, 0) + sign * c
        return AlgebraElement(self.group, self.p, out)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._plus(other, 1)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._plus(other, -1)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """The convolution, over the nonzero pairs of terms only."""
        mul = self.group.mul
        out: Dict[int, int] = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                k = mul(i, j)
                out[k] = out.get(k, 0) + a * b
        return AlgebraElement(self.group, self.p, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and other.group is self.group
            and other.p == self.p
            and other.coeffs == self.coeffs
        )

    def __repr__(self) -> str:
        parts = [
            f"{c}*[{self.group.elements[i]}]" for i, c in sorted(self.coeffs.items())
        ]
        return " + ".join(parts) if parts else "0"


class FinModule:
    """A module over F_p for a subgroup, given by generator action matrices.

    An element acts as the product of the generator matrices along its
    path in `Subgroup.steps`. Construction verifies that the generator
    matrices are invertible and that the actions of an induced pcgs
    c_1..c_n of the subgroup (`_pcgs`) satisfy its polycyclic relations
    (`_pc_relations`): each relation word acts as its value's normal form
    does. By von Dyck's theorem the c_m's actions then extend to a
    homomorphism, and it is `action_of` once every generator acts as its
    normal form does. That is the whole homomorphism property, so an
    inconsistent action is rejected up front, after n + n(n-1)/2 relations
    rather than one check per element and generator.
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
        self.gen_actions = [
            tuple(tuple(int(x) % p for x in row) for row in m) for m in gen_actions
        ]
        if self.gen_actions:
            self.dim = len(self.gen_actions[0])
        elif dim is not None:
            self.dim = dim
        else:
            raise ValueError("dim required for a generator-free subgroup")
        for m in self.gen_actions:
            if len(m) != self.dim or any(len(row) != self.dim for row in m):
                raise ValueError("action matrices must be square of equal size")
        self._eye = _eye(self.dim)
        self._cache: Dict[int, Matrix] = {subgroup.parent.identity: self._eye}
        if check:
            self._validate()

    @classmethod
    def trivial(cls, subgroup: Subgroup, p: int, dim: int = 1) -> "FinModule":
        eye = _eye(dim)
        return cls(
            subgroup, p, [eye] * len(subgroup.generators), check=False, dim=dim
        )

    def action_of(self, element_index: int) -> Matrix:
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
            m = a if m is self._eye else _matmul(m, a, self.p)
            self._cache[e] = m
        return m

    def _validate(self) -> None:
        for m in self.gen_actions:
            if _rank(m, self.p) != self.dim:
                raise ValueError("action matrix is singular")
        S, p = self.subgroup, self.p
        G = S.parent
        pcgs = _pcgs(S)
        cs = [c for c, _ in pcgs]
        # A_m^k for k <= p, A_m the action of c_m.
        powers = []
        for c in cs:
            row = [self._eye, self.action_of(c)]
            while len(row) <= p:
                row.append(_matmul(row[-1], row[1], p))
            powers.append(row)

        def product(factors: Iterable[Tuple[int, int]]) -> Matrix:
            m = self._eye
            for j, k in factors:
                if k:
                    m = powers[j][k] if m is self._eye else _matmul(m, powers[j][k], p)
            return m

        def normal_form(e: int) -> Matrix:
            return product(enumerate(_exponents(G, pcgs, e)))

        for word in _pc_relations(len(cs), p):
            e = reduce(G.mul, (_power(G, cs[j], k) for j, k in word))
            if product(word) != normal_form(e):
                raise ValueError("generator actions violate the group law")
        for g, a in zip(S.generators, self.gen_actions):
            if a != normal_form(g):
                raise ValueError("generator actions violate the group law")


# A block map (perm, blocks) sends column block i to row block perm[i]
# through the matrix blocks[i]; every other block of that column is zero.
BlockMap = Tuple[List[int], List[Matrix]]


def _block_map(
    G: FiniteGroup,
    action: Callable[[int], Matrix],
    reps: Sequence[int],
    label: Dict[int, int],
    xs: Sequence[int],
) -> BlockMap:
    """The block map sending column block i to the left coset of xs[i]: with
    xs[i] = g_k gamma, g_k in `reps` (`label` gives every element its coset's
    position) and gamma in the small group, block i goes to block k through
    `action(gamma)`.

    On the module induced from M, with basis g_i (x) e_j over `reps`, g acts
    by the block map of xs = [g g_i] and M's action:
    g.(g_i (x) m) = g_k (x) (gamma.m).
    """
    perm = [label[x] for x in xs]
    return perm, [action(G.mul(G.inv(reps[k]), x)) for k, x in zip(perm, xs)]


def induce(module: FinModule, big: Subgroup) -> Tuple[FinModule, List[int]]:
    """Induced module over `big`, with basis g_i (x) e_j over the left coset
    representatives (returned alongside, in order), as dense matrices for the
    generators of `big`."""
    small = module.subgroup
    _assert_subgroup_of(big, small)
    G = big.parent
    reps, label = _cosets(G, big.elements, small, "left")
    d = module.dim
    dim = len(reps) * d
    actions = []
    for g in big.generators:
        m = [[0] * dim for _ in range(dim)]
        perm, blocks = _block_map(
            G, module.action_of, reps, label, [G.mul(g, r) for r in reps]
        )
        for i, (k, block) in enumerate(zip(perm, blocks)):
            for r, row in enumerate(block):
                m[k * d + r][i * d : (i + 1) * d] = row
        actions.append(m)
    return FinModule(big, module.p, actions, check=False, dim=dim), reps


@dataclass
class MackeyReport:
    lhs_dim: int
    rhs_dim: int
    dims_match: bool
    psi_equivariant: bool
    psi_bijective: bool
    double_coset_count: int
    coset_reps_ok: bool

    @property
    def ok(self) -> bool:
        return all(
            (self.dims_match, self.psi_equivariant, self.psi_bijective, self.coset_reps_ok)
        )


Piece = Tuple[int, Subgroup, Subgroup]


def _decompose(G: FiniteGroup, H: Subgroup, G1: Subgroup, cosets: Cosets) -> List[Piece]:
    """(g, gG1g^-1, K_g = gG1g^-1 cap H) per g of H\\G/G1 that `double_cosets`
    reads off `cosets` (G/G1). Every g conjugates every element of G1, and
    the pair (gG1g^-1, K_g) is keyed by that element set: a conjugate is
    closed, checked against the set and cut with H only on its first
    sighting, and the later pieces with that set share those objects."""
    pieces = []
    closed: Dict[frozenset, Tuple[Subgroup, Subgroup]] = {}
    for g in double_cosets(G, H, cosets):
        key = frozenset(G.conjugate(g, x) for x in G1.elements)
        pair = closed.get(key)
        if pair is None:
            conj = Subgroup(G, [G.conjugate(g, x) for x in G1.generators])
            if conj.element_set != key:
                raise AssertionError("conjugated subgroup closure mismatch")
            inter_elems = [e for e in conj.elements if H.contains(e)]
            K = subgroup_from_elements(G, inter_elems)
            if set(K.elements) != set(inter_elems):
                raise NotASubgroup("intersection is not closed")
            closed[key] = pair = (conj, K)
        pieces.append((g, *pair))
    return pieces


def _conjugated(G: FiniteGroup, module: FinModule, g: int) -> Callable[[int], Matrix]:
    """The action of M^g, read from M: gamma acts as g^-1 gamma g acts on M."""
    if g == G.identity:
        return module.action_of
    g_inv, conjugate, action_of = G.inv(g), G.conjugate, module.action_of
    return lambda gamma: action_of(conjugate(g_inv, gamma))


def _intertwines(left: BlockMap, psi: BlockMap, right: BlockMap, p: int) -> bool:
    """True iff left.psi == psi.right over F_p, compared column block by
    column block.

    Column block c of left.psi is left's block k = psi_perm[c] times psi's
    block c, in row block left_perm[k]; that of psi.right is psi's block
    j = right_perm[c] times right's block c, in row block psi_perm[j]. The
    columns are equal exactly when both land in the same row block with equal
    matrices, or both matrices are zero. Every block is reduced mod p, so a
    product with an identity block is the other block, taken as it is.
    """
    lperm, lblocks = left
    pperm, pblocks = psi
    rperm, rblocks = right
    eye = _eye(len(pblocks[0])) if pblocks else ()
    for c, (k, j) in enumerate(zip(pperm, rperm)):
        u, v = lblocks[k], pblocks[c]
        a = v if u == eye else u if v == eye else _matmul(u, v, p)
        u, v = pblocks[j], rblocks[c]
        b = v if u == eye else u if v == eye else _matmul(u, v, p)
        if not (lperm[k] == pperm[j] and a == b) and any(map(any, a + b)):
            return False
    return True


def _bijective(psi: BlockMap, rows: int, p: int) -> bool:
    """True iff the block map psi onto `rows` row blocks is invertible over
    F_p: it permutes the blocks and every block has full rank."""
    perm, blocks = psi
    # The blocks are FinModule.action_of's cached matrices, so one object is
    # one matrix: rank each object once.
    return sorted(perm) == list(range(rows)) and all(
        _rank(b, p) == len(b)
        for b in {id(b): b for b in blocks}.values()
    )


def mackey_check(
    G: FiniteGroup, H: Subgroup, G1: Subgroup, module: FinModule
) -> MackeyReport:
    """Compare restriction-of-induction with the double-coset decomposition.

    Builds Res_H Ind_G1^G M and the direct sum over double-coset
    representatives g of Ind_{K_g}^H M^g, K_g = gG1g^-1 cap H, together with
    the comparison map that sends r (x) (g (x) m) to (r g) (x) m, all as
    block maps, and checks exactly that this map intertwines the action of
    every generator of H and is bijective over F_p. M^g is M itself, with
    gamma in K_g acting as g^-1 gamma g does (Serre, Linear Representations
    of Finite Groups, 7.3), so every block is read from the one module.
    """
    if module.subgroup.element_set != G1.element_set:
        raise ValueError("module must live over G1")
    p, act = module.p, module.action_of
    lhs_reps, lhs_label = lhs = _cosets(G, range(G.order), G1, "left")

    pieces = _decompose(G, H, G1, lhs)
    # H/K_g once per distinct K_g object, that is per distinct conjugate.
    h_cosets = {
        K: _cosets(G, H.elements, K, "left")
        for K in dict.fromkeys(K for _, _, K in pieces)
    }
    # (H/K_g reps, their labels, the action of M^g, g)
    rhs_pieces = [(*h_cosets[K], _conjugated(G, module, g), g) for g, _, K in pieces]

    # Column block (h_i, g) of psi goes to the lhs coset of h_i g.
    cols = [G.mul(hi, g) for hreps, _, _, g in rhs_pieces for hi in hreps]
    psi = _block_map(G, act, lhs_reps, lhs_label, cols)

    def rhs_block_map(h: int) -> BlockMap:
        # The block direct sum of the inductions, one piece after another.
        perm, blocks, offset = [], [], 0
        for hreps, hlabel, action, _ in rhs_pieces:
            piece_perm, piece_blocks = _block_map(
                G, action, hreps, hlabel, [G.mul(h, r) for r in hreps]
            )
            perm += [offset + k for k in piece_perm]
            blocks += piece_blocks
            offset += len(hreps)
        return perm, blocks

    lhs_dim = len(lhs_reps) * module.dim
    rhs_dim = len(psi[0]) * module.dim
    equivariant = all(
        _intertwines(
            _block_map(G, act, lhs_reps, lhs_label, [G.mul(h, r) for r in lhs_reps]),
            psi,
            rhs_block_map(h),
            p,
        )
        for h in H.generators
    )
    return MackeyReport(
        lhs_dim=lhs_dim,
        rhs_dim=rhs_dim,
        dims_match=lhs_dim == rhs_dim,
        psi_equivariant=equivariant,
        psi_bijective=_bijective(psi, len(lhs_reps), p),
        double_coset_count=len(pieces),
        coset_reps_ok=coset_rep_check(G, H, pieces),
    )


def coset_rep_check(G: FiniteGroup, H: Subgroup, pieces: Sequence[Piece]) -> bool:
    """Verify the glued representative set Z = {a g} hits every right
    H-coset exactly once, where (g, conj, K) runs over the pieces of
    `_decompose`, conj the subgroup gG1g^-1 and K = conj cap H, and a over
    representatives of K\\conj, both partitions right cosets from `_cosets`.

    The representatives are the least elements of the cosets Ka, which are
    also those of the left cosets aK: indices are lex on (x, y, z), so a
    coset's least element m has the least (x, y) in its projection to the
    abelian U3/Z, then the least z. For any m, Km and mK have the same
    projection and the same fibre m(K cap Z) over that of m, as the centre
    Z = {(0, 0, z)} commutes with m; so m is least in both or in neither.
    """
    # K\conj once per distinct (conj, K) pair of objects.
    conj_reps = {
        (conj, K): _cosets(G, conj.elements, K, "right")[0]
        for conj, K in dict.fromkeys((conj, K) for _, conj, K in pieces)
    }
    zs = [G.mul(a, g) for g, conj, K in pieces for a in conj_reps[conj, K]]
    reps, label = _cosets(G, range(G.order), H, "right")
    return len(zs) == len(reps) and len({label[z] for z in zs}) == len(zs)


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


def commutator_identity_report(G: FiniteGroup) -> CommutatorReport:
    """Exact convolution check of the Heisenberg commutator identity.

    With s = g12 - 1, t = g23 - 1, w = g13 - 1 in F_p[G], G = U_3(Z/p^a),
    the group law gives (1+s)(1+t) = (1+w)(1+t)(1+s), which rearranges to

        s t - t s = (1+t)(1+s) w.

    The variant with the unit factors in the other order, (1+s)(1+t) w,
    differs by (1+t)(1+s) w^2 and only holds when p = 2, a = 1; the report
    records both so callers can see the distinction.
    """
    p, pa = G.p, G.pa
    gs = G.index[(1 % pa, 0, 0)]
    gt = G.index[(0, 1 % pa, 0)]
    gw = G.index[(0, 0, 1 % pa)]
    group_identity = G.mul(G.mul(G.mul(gs, gt), G.inv(gs)), G.inv(gt)) == gw

    one = AlgebraElement.one(G, p)
    S = AlgebraElement.of(G, p, gs) - one
    T = AlgebraElement.of(G, p, gt) - one
    W = AlgebraElement.of(G, p, gw) - one
    lhs = S * T - T * S
    corrected = (one + T) * (one + S) * W
    printed = (one + S) * (one + T) * W
    return CommutatorReport(
        p=p,
        a=G.a,
        group_identity=group_identity,
        algebra_identity=lhs == corrected,
        printed_order_holds=lhs == printed,
    )


def augmentation_basis(G: FiniteGroup, H: Subgroup, p: int) -> List[fp_linalg.Row]:
    """F_p-basis of the left ideal of F_p[G] generated by {h - 1, h in H}, as
    its reduced echelon rows {element index: coefficient} by ascending pivot.

    The ideal is spanned by the g(s - 1) = [gs] - [g] over g in G and the
    generators s of H, since g(h1 h2 - 1) = g h1 (h2 - 1) + g(h1 - 1) and in
    a finite group every h is a product of generators. Nothing about the
    dimension is assumed.
    """
    # s != 1, so gs != g and each row holds two entries.
    rows = [
        {G.mul(g, s): 1, g: p - 1}
        for g in range(G.order)
        for s in H.generators
        if s != G.identity
    ]
    space = fp_linalg.RowSpace(fp_linalg.FpMatrix(rows, G.order, p))
    return list(space.basis.values())


def random_unipotent_module(
    subgroup: Subgroup, p: int, dim: int = 2, seed: int = 0
) -> FinModule:
    """A seeded module of dimension 1 (the trivial one) or 2 for a subgroup
    of a unitriangular group.

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
        P = tuple(tuple(rng.randrange(p) for _ in range(2)) for _ in range(2))
        (a, b), (c, d) = P
        det = (a * d - b * c) % p
        if det:
            break
    det_inv = pow(det, p - 2, p)
    Pinv = tuple(tuple(det_inv * x % p for x in row) for row in ((d, -b), (-c, a)))
    actions = []
    for g in subgroup.generators:
        x, y, _ = G.elements[g]
        lam = (c1 * x + c2 * y) % p
        actions.append(_matmul(_matmul(P, ((1, lam), (0, 1)), p), Pinv, p))
    return FinModule(subgroup, p, actions, dim=2)
