"""Data model for solvable groups T ⋉ U given by torus valuation data,
a weight set, and a graded nilpotent Lie algebra over Q.

The group itself is never materialized. A datum records
  * p-adic field parameters (only the ramification index is ever computed
    with; units and the compact torus part play no role in the criterion),
  * free-torus generators as valuation vectors in Z^d,
  * the weights (characters written as exponent vectors in Z^d), and
  * exact rational structure constants of the nilpotent Lie algebra, graded
    by those weights.

The valuation of a character on a torus element is then an integer dot
product, and everything downstream (the f-matrix, its image lattice, the
embedded-subgroup search) is exact integer or rational arithmetic.

validate() checks the datum exhaustively up to MAX_EXHAUSTIVE_DIM: grading
on every bracket, Jacobi on every basis triple, and nilpotency through the
lower central series (de Graaf, Lie Algebras: Theory and Algorithms,
North-Holland 2000, sec. 1.15 and ch. 5). These kernels touch only nonzero
structure constants: the Jacobi sum of a triple accumulates in a dict keyed
by target index, each series term is spanned by the [e_i, y] formed from
bracket_basis, and the rational elimination skips zero entries. The results
equal those of a dense scan, since RREF over Q is unique.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .fp_linalg import is_prime
from .int_lattice import IntLattice, IntVector

QVector = Tuple[Fraction, ...]

MAX_EXHAUSTIVE_DIM = 12


class PreconditionViolation(ValueError):
    pass


class MalformedDatum(ValueError):
    pass


class NotNilpotent(ValueError):
    pass


@dataclass(frozen=True)
class PadicFieldParams:
    """Degree/ramification data of a finite extension of Q_p.

    ramification is v_F(p); only it enters the witness exponent bookkeeping.
    """

    p: int
    degree: int = 1
    ramification: int = 1
    residue_degree: int = 1

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if self.ramification * self.residue_degree != self.degree:
            raise ValueError("ramification * residue_degree must equal degree")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")


@dataclass(frozen=True)
class Weight:
    """A character of the free torus part, as an exponent vector in Z^d."""

    exponents: IntVector
    multiplicity: int = 1

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(int(x) for x in self.exponents))
        if self.multiplicity < 1:
            raise ValueError("weight multiplicity must be >= 1")


def _q(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _rref_frac(rows: Sequence[Sequence[Fraction]]) -> List[QVector]:
    """Reduced row echelon form over Q; zero rows dropped. Canonical.

    Scaling and elimination touch only the pivot row's nonzero entries.
    """
    work = [list(map(_q, r)) for r in rows]
    if not work:
        return []
    ncols = len(work[0])
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        row = work[r]
        support = [k for k in range(c, ncols) if row[k]]
        inv = 1 / row[c]
        for k in support:
            row[k] *= inv
        for i, other in enumerate(work):
            f = other[c]
            if f and i != r:
                for k in support:
                    other[k] -= f * row[k]
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work if any(row)]


def _in_span(rref_rows: Sequence[QVector], v: Sequence[Fraction]) -> bool:
    w = list(map(_q, v))
    for row in rref_rows:
        support = [k for k, a in enumerate(row) if a]
        f = w[support[0]]
        if f:
            f /= row[support[0]]
            for k in support:
                w[k] -= f * row[k]
    return not any(w)


class GradedLieAlgebraQ:
    """Nilpotent Lie algebra over Q with weight-graded basis.

    brackets maps (i, j) to {k: c} meaning [e_i, e_j] = sum c * e_k. Entries
    may be given for either orientation of (i, j); the mirror is filled in by
    antisymmetry. validate() reports inconsistencies instead of raising.
    """

    def __init__(
        self,
        dim: int,
        weight_of: Sequence[int],
        brackets: Dict[Tuple[int, int], Dict[int, Fraction]],
        labels: Optional[Sequence[str]] = None,
    ):
        self.dim = dim
        self.weight_of = tuple(int(w) for w in weight_of)
        if len(self.weight_of) != dim:
            raise MalformedDatum("weight_of length must equal dim")
        self.labels = tuple(labels) if labels else tuple(f"e{i + 1}" for i in range(dim))
        raw: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
        for (i, j), terms in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise MalformedDatum(f"bracket index out of range: ({i}, {j})")
            cleaned = {int(k): _q(c) for k, c in terms.items() if _q(c) != 0}
            for k in cleaned:
                if not 0 <= k < dim:
                    raise MalformedDatum(f"bracket target out of range: {k}")
            if cleaned:
                raw[(i, j)] = cleaned
        self._raw = raw
        # Normalized table holding both orientations, built from the given
        # entries only; the i < j entry wins when both are given (validate()
        # reports any inconsistency) and diagonal entries never enter it.
        table: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
        for (i, j), terms in raw.items():
            if i == j or (i > j and (j, i) in raw):
                continue
            if i > j:
                i, j, terms = j, i, {k: -c for k, c in terms.items()}
            table[(i, j)] = dict(terms)
            table[(j, i)] = {k: -c for k, c in terms.items()}
        self._table = table

    def bracket_basis(self, i: int, j: int) -> Dict[int, Fraction]:
        """[e_i, e_j] as {k: c}. The dict is shared: callers must not mutate it."""
        return self._table.get((i, j), {})

    def bracket(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> QVector:
        out = [Fraction(0)] * self.dim
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        for i, xi in enumerate(x):
            if xi:
                for j, yj in ys:
                    for k, c in self.bracket_basis(i, j).items():
                        out[k] += xi * yj * c
        return tuple(out)

    def basis_vector(self, i: int) -> QVector:
        return tuple(Fraction(1) if k == i else Fraction(0) for k in range(self.dim))

    def antisymmetry_violations(self) -> List[str]:
        out = []
        for (i, j), terms in self._raw.items():
            if i == j and terms:
                out.append(f"[e{i + 1}, e{i + 1}] must vanish")
            if i != j and (j, i) in self._raw:
                mirror = {k: -c for k, c in self._raw[(j, i)].items()}
                if mirror != terms:
                    out.append(f"brackets ({i}, {j}) and ({j}, {i}) are not antisymmetric")
        return out


@dataclass(frozen=True)
class SolvableGroupDatum:
    field_params: PadicFieldParams
    torus_rank: int
    torus_generators: Tuple[IntVector, ...]
    weights: Tuple[Weight, ...]
    lie: GradedLieAlgebraQ

    def __post_init__(self):
        object.__setattr__(
            self,
            "torus_generators",
            tuple(tuple(int(x) for x in g) for g in self.torus_generators),
        )
        object.__setattr__(self, "weights", tuple(self.weights))

    def weight_index(self, exponents: Sequence[int]) -> Optional[int]:
        key = tuple(int(x) for x in exponents)
        for i, w in enumerate(self.weights):
            if w.exponents == key:
                return i
        return None


def valuation_of_character(w: Weight, t: Sequence[int]) -> int:
    """n_w(t) = <exponents, t>, the valuation of the character at t."""
    if len(w.exponents) != len(t):
        raise ValueError(
            f"character in Z^{len(w.exponents)} applied to vector of length {len(t)}"
        )
    return sum(a * b for a, b in zip(w.exponents, t))


def _torus_element(datum: SolvableGroupDatum, combo: Sequence[int]) -> IntVector:
    """The torus element sum_a combo[a] * torus_generators[a], in Z^d."""
    return tuple(
        sum(c * t[i] for c, t in zip(combo, datum.torus_generators))
        for i in range(datum.torus_rank)
    )


def f_matrix(datum: SolvableGroupDatum) -> List[List[int]]:
    """The |Phi| x d exponent matrix, one row per weight in order."""
    return [list(w.exponents) for w in datum.weights]


def torus_images(datum: SolvableGroupDatum) -> List[IntVector]:
    """f(t) in Z^|Phi| for every torus generator t, in order."""
    m = f_matrix(datum)
    return [
        tuple(sum(row[i] * v[i] for i in range(datum.torus_rank)) for row in m)
        for v in datum.torus_generators
    ]


def f_image(datum: SolvableGroupDatum) -> IntLattice:
    """Image lattice of the torus under the valuation map, inside Z^|Phi|."""
    return IntLattice(len(datum.weights), torus_images(datum))


def validate(datum: SolvableGroupDatum) -> List[str]:
    """All structural violations of the datum, empty when valid.

    Dimension is capped at MAX_EXHAUSTIVE_DIM so the Jacobi and nilpotency
    checks can stay exhaustive; larger input is refused outright.
    """
    lie = datum.lie
    if lie.dim > MAX_EXHAUSTIVE_DIM:
        raise ValueError(
            f"dim {lie.dim} exceeds exhaustive-validation bound {MAX_EXHAUSTIVE_DIM}"
        )
    out: List[str] = []
    d = datum.torus_rank
    for g in datum.torus_generators:
        if len(g) != d:
            out.append(f"torus generator {g} not in Z^{d}")
    seen = {}
    for i, w in enumerate(datum.weights):
        if len(w.exponents) != d:
            out.append(f"weight {i} not in Z^{d}")
        if w.exponents in seen:
            out.append(f"weights {seen[w.exponents]} and {i} have equal exponents")
        seen[w.exponents] = i
    counts = [0] * len(datum.weights)
    for i, wi in enumerate(lie.weight_of):
        if not 0 <= wi < len(datum.weights):
            out.append(f"basis vector {i} references missing weight {wi}")
        else:
            counts[wi] += 1
    for i, w in enumerate(datum.weights):
        if counts[i] != w.multiplicity:
            out.append(
                f"weight {i} has multiplicity {w.multiplicity} but {counts[i]} basis vectors"
            )
    out.extend(lie.antisymmetry_violations())
    if any(not 0 <= wi < len(datum.weights) for wi in lie.weight_of):
        # The checks below look up the weight of every basis vector.
        return out

    # Grading: a nonzero bracket lands in the weight space of the sum.
    for i in range(lie.dim):
        for j in range(i + 1, lie.dim):
            terms = lie.bracket_basis(i, j)
            if not terms:
                continue
            wi = datum.weights[lie.weight_of[i]].exponents
            wj = datum.weights[lie.weight_of[j]].exponents
            target = tuple(a + b for a, b in zip(wi, wj))
            for k in terms:
                if datum.weights[lie.weight_of[k]].exponents != target:
                    out.append(
                        f"bracket [e{i + 1}, e{j + 1}] hits e{k + 1} outside weight {target}"
                    )

    # Jacobi, exhaustively over basis triples.
    for i in range(lie.dim):
        for j in range(i + 1, lie.dim):
            for k in range(j + 1, lie.dim):
                acc: Dict[int, Fraction] = {}
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, cm in lie.bracket_basis(b, c).items():
                        for n, cn in lie.bracket_basis(a, m).items():
                            acc[n] = acc.get(n, 0) + cm * cn
                if any(acc.values()):
                    out.append(f"Jacobi identity fails on (e{i + 1}, e{j + 1}, e{k + 1})")

    try:
        lower_central_series(lie)
    except NotNilpotent:
        out.append("lower central series does not reach zero")

    return out


def _bracket_closed(lie: GradedLieAlgebraQ, basis: Sequence[QVector]) -> bool:
    """True iff the bracket of any two basis vectors lies in their span."""
    span = _rref_frac([list(v) for v in basis])
    for x in basis:
        for y in basis:
            b = lie.bracket(x, y)
            if any(c != 0 for c in b) and not _in_span(span, b):
                return False
    return True


def lower_central_series(lie: GradedLieAlgebraQ) -> List[List[QVector]]:
    """Descending chain g = g^1 >= g^2 = [g, g^1] >= ... down to zero.

    Each g^(k+1) is the span of the [e_i, y], y a basis row of g^k, formed
    from the nonzero structure constants only. Every term is returned as its
    canonical RREF basis. Raises NotNilpotent if the chain stabilizes at a
    nonzero term.
    """
    dim = lie.dim
    chain = [[lie.basis_vector(i) for i in range(dim)]]
    while chain[-1]:
        prev = chain[-1]
        rows = []
        for y in prev:
            ys = [(j, yj) for j, yj in enumerate(y) if yj]
            for i in range(dim):
                acc: Dict[int, Fraction] = {}
                for j, yj in ys:
                    for k, c in lie.bracket_basis(i, j).items():
                        acc[k] = acc.get(k, 0) + yj * c
                if any(acc.values()):
                    row = [Fraction(0)] * dim
                    for k, c in acc.items():
                        row[k] = c
                    rows.append(row)
        nxt = _rref_frac(rows)
        if len(nxt) >= len(prev):
            raise NotNilpotent("lower central series fails to descend to zero")
        chain.append(nxt)
    return chain


@dataclass(frozen=True)
class WitnessDescriptor:
    """An embedded minimal non-coherent subgroup.

    kind G3 is a 2-dimensional abelian unipotent part, kind H3 a Heisenberg
    one; alpha/beta index the weights of the generating lines, with
    n_alpha > 0 > n_beta under the recorded torus combination. n_prime is the
    ramification index (the power that clears units from torus entries), and
    n_u = n_alpha, n_v = -n_beta are the resulting valuations.
    """

    kind: str
    alpha: int
    beta: int
    n_alpha: int
    n_beta: int
    n_u: int
    n_v: int
    n_prime: int
    torus_combination: IntVector
    subalgebra_basis: Tuple[QVector, ...]


def _is_homogeneous(lie: GradedLieAlgebraQ, v: Sequence[Fraction]) -> Optional[int]:
    """Weight index of a homogeneous vector, None for zero or mixed."""
    ws = {lie.weight_of[i] for i, c in enumerate(v) if c != 0}
    if len(ws) != 1:
        return None
    return ws.pop()


def witness_subgroup(
    datum: SolvableGroupDatum,
    torus_combination: Sequence[int],
    alpha: int,
    beta: int,
) -> WitnessDescriptor:
    """Locate an embedded G3- or H3-type subgroup witnessing non-coherence.

    The structural induction runs as one loop over a homogeneous pair
    vpos, vneg with n(vpos) > 0 > n(vneg), starting from basis vectors of
    the alpha and beta weight spaces. With z = [vpos, vneg]: z = 0 gives an
    abelian G3 witness, and z commuting with both gives a Heisenberg H3
    witness; both bases are bracket-closed by construction. Otherwise one
    generator is replaced by a bracket, chosen by the sign of n(z) =
    n(vpos) + n(vneg) (valuations are linear): z replaces vpos if n(z) > 0
    and vneg if n(z) < 0; if n(z) = 0, vpos becomes [vpos, z] when that is
    nonzero and vneg becomes [vneg, z] otherwise.

    Termination: the new pair lies in span(kept generator) + [S, S], S the
    subalgebra the old pair generates. Were it to generate all of S,
    S/[S, S] would be at most one-dimensional, so nilpotent S (validate()
    checks nilpotency) would be too, against z != 0. So S shrinks strictly,
    there are at most dim - 2 replacements, and MalformedDatum is raised
    past dim iterations.
    """
    lie = datum.lie
    combo = tuple(int(c) for c in torus_combination)
    if len(combo) != len(datum.torus_generators):
        raise ValueError("torus_combination length must match torus_generators")
    t_val = _torus_element(datum, combo)

    if not (0 <= alpha < len(datum.weights) and 0 <= beta < len(datum.weights)):
        raise PreconditionViolation("alpha/beta out of range")
    npos = valuation_of_character(datum.weights[alpha], t_val)
    nneg = valuation_of_character(datum.weights[beta], t_val)
    if npos <= 0 or nneg >= 0:
        raise PreconditionViolation(f"need n_alpha > 0 > n_beta, got {npos}, {nneg}")

    pairs = [
        (i, j)
        for i in range(lie.dim) if lie.weight_of[i] == alpha
        for j in range(lie.dim) if lie.weight_of[j] == beta
    ]
    # Deterministic choice: the first representative pair with a nonzero
    # bracket, else the first pair.
    i, j = next((ij for ij in pairs if lie.bracket_basis(*ij)), pairs[0])
    vpos, vneg = lie.basis_vector(i), lie.basis_vector(j)

    wpos, wneg = alpha, beta
    for _ in range(lie.dim):
        if _is_homogeneous(lie, vpos) is None or _is_homogeneous(lie, vneg) is None:
            raise MalformedDatum("non-homogeneous generator in the witness search")
        z = lie.bracket(vpos, vneg)
        if not any(z):
            basis = (vpos, vneg)
            break
        wz = _weight_sum_index(datum, wpos, wneg)
        zpos = lie.bracket(vpos, z)
        zneg = None if any(zpos) else lie.bracket(vneg, z)
        if zneg is not None and not any(zneg):
            basis = (vpos, vneg, z)
            break
        nz = npos + nneg
        if nz > 0:
            vpos, wpos, npos = z, wz, nz
        elif nz < 0:
            vneg, wneg, nneg = z, wz, nz
        elif zneg is None:
            vpos, wpos = zpos, _weight_sum_index(datum, wpos, wz)
        else:
            vneg, wneg = zneg, _weight_sum_index(datum, wneg, wz)
    else:
        raise MalformedDatum(f"witness search did not end within {lie.dim} steps")

    return WitnessDescriptor(
        kind="G3" if len(basis) == 2 else "H3",
        alpha=wpos,
        beta=wneg,
        n_alpha=npos,
        n_beta=nneg,
        n_u=npos,
        n_v=-nneg,
        n_prime=datum.field_params.ramification,
        torus_combination=combo,
        subalgebra_basis=basis,
    )


def _weight_sum_index(datum: SolvableGroupDatum, wi: int, wj: int) -> int:
    target = tuple(
        a + b
        for a, b in zip(datum.weights[wi].exponents, datum.weights[wj].exponents)
    )
    idx = datum.weight_index(target)
    if idx is None:
        raise MalformedDatum(f"weight {target} missing from the weight set")
    return idx
