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
    """Reduced row echelon form over Q; zero rows dropped. Canonical."""
    work = [list(map(_q, r)) for r in rows]
    if not work:
        return []
    ncols = len(work[0])
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = 1 / work[r][c]
        work[r] = [inv * a for a in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work if any(a != 0 for a in row)]


def _in_span(rref_rows: Sequence[QVector], v: Sequence[Fraction]) -> bool:
    w = list(map(_q, v))
    for row in rref_rows:
        c = next(i for i, a in enumerate(row) if a != 0)
        if w[c] != 0:
            f = w[c] / row[c]
            w = [a - f * b for a, b in zip(w, row)]
    return all(a == 0 for a in w)


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
        # Normalized table keyed by i < j; the i < j orientation wins when
        # both are present (validate() reports any inconsistency).
        table: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
        for i in range(dim):
            for j in range(i + 1, dim):
                if (i, j) in raw:
                    table[(i, j)] = dict(raw[(i, j)])
                elif (j, i) in raw:
                    table[(i, j)] = {k: -c for k, c in raw[(j, i)].items()}
        self._table = table

    def bracket_basis(self, i: int, j: int) -> Dict[int, Fraction]:
        if i == j:
            return {}
        key, sign = ((i, j), 1) if i < j else ((j, i), -1)
        terms = self._table.get(key, {})
        return {k: sign * c for k, c in terms.items()}

    def bracket(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> QVector:
        out = [Fraction(0)] * self.dim
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
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
                acc = [Fraction(0)] * lie.dim
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = lie.bracket_basis(b, c)
                    for m, cm in inner.items():
                        for n, cn in lie.bracket_basis(a, m).items():
                            acc[n] += cm * cn
                if any(x != 0 for x in acc):
                    out.append(f"Jacobi identity fails on (e{i + 1}, e{j + 1}, e{k + 1})")

    try:
        lower_central_series(lie)
    except NotNilpotent:
        out.append("lower central series does not reach zero")

    # Valuation additivity along nonzero brackets, re-checked numerically.
    for i in range(lie.dim):
        for j in range(i + 1, lie.dim):
            if not lie.bracket_basis(i, j):
                continue
            wi = datum.weights[lie.weight_of[i]]
            wj = datum.weights[lie.weight_of[j]]
            wsum = Weight(tuple(a + b for a, b in zip(wi.exponents, wj.exponents)))
            for t in datum.torus_generators:
                if len(t) != d or len(wi.exponents) != d or len(wj.exponents) != d:
                    continue
                lhs = valuation_of_character(wsum, t)
                rhs = valuation_of_character(wi, t) + valuation_of_character(wj, t)
                if lhs != rhs:
                    out.append(f"valuation additivity fails at bracket ({i}, {j})")
    return out


def subalgebra_generated(
    lie: GradedLieAlgebraQ, vectors: Sequence[Sequence[Fraction]]
) -> List[QVector]:
    """Basis (canonical rref) of the smallest bracket-closed subspace
    containing the given vectors."""
    basis = _rref_frac([list(map(_q, v)) for v in vectors])
    while True:
        new = []
        for x in basis:
            for y in basis:
                b = lie.bracket(x, y)
                if any(c != 0 for c in b) and not _in_span(basis, b):
                    new.append(b)
        if not new:
            return basis
        basis = _rref_frac([list(v) for v in basis] + [list(v) for v in new])


def lower_central_series(lie: GradedLieAlgebraQ) -> List[List[QVector]]:
    """Descending chain g = g^1 >= g^2 = [g, g^1] >= ... down to zero.

    Raises NotNilpotent if the chain stabilizes at a nonzero term.
    """
    full = [lie.basis_vector(i) for i in range(lie.dim)]
    chain = [_rref_frac([list(v) for v in full])]
    while chain[-1]:
        prev = chain[-1]
        brackets = [lie.bracket(x, y) for x in full for y in prev]
        nxt = _rref_frac([list(b) for b in brackets if any(c != 0 for c in b)])
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

    The search runs the structural induction directly: pick one-dimensional
    pieces of the alpha and beta weight spaces (n_alpha(t) > 0 > n_beta(t)),
    and look at the subalgebra they generate. If it is two-dimensional it is
    abelian and gives a G3 witness; if the bracket line commutes with both
    generators the three span a Heisenberg algebra and give an H3 witness.
    Otherwise one generator is replaced by a bracket, chosen by the sign of
    the new valuation, and the generated subalgebra strictly shrinks, so the
    recursion terminates.
    """
    lie = datum.lie
    combo = tuple(int(c) for c in torus_combination)
    if len(combo) != len(datum.torus_generators):
        raise ValueError("torus_combination length must match torus_generators")
    t_val = tuple(
        sum(combo[a] * datum.torus_generators[a][i] for a in range(len(combo)))
        for i in range(datum.torus_rank)
    )

    def val(weight_idx: int) -> int:
        return valuation_of_character(datum.weights[weight_idx], t_val)

    if not (0 <= alpha < len(datum.weights) and 0 <= beta < len(datum.weights)):
        raise PreconditionViolation("alpha/beta out of range")
    if val(alpha) <= 0 or val(beta) >= 0:
        raise PreconditionViolation(
            f"need n_alpha > 0 > n_beta, got {val(alpha)}, {val(beta)}"
        )

    def space_indices(widx: int) -> List[int]:
        return [i for i in range(lie.dim) if lie.weight_of[i] == widx]

    vpos = lie.basis_vector(space_indices(alpha)[0])
    vneg = lie.basis_vector(space_indices(beta)[0])
    if all(c == 0 for c in lie.bracket(vpos, vneg)):
        # Deterministic fallback: if the full weight spaces fail to commute,
        # prefer a representative pair with nonzero bracket.
        for i in space_indices(alpha):
            for j in space_indices(beta):
                if any(c != 0 for c in lie.bracket_basis(i, j).values()):
                    vpos = lie.basis_vector(i)
                    vneg = lie.basis_vector(j)
                    break
            else:
                continue
            break

    return _witness_recurse(datum, combo, t_val, vpos, alpha, vneg, beta, lie.dim + 1)


def _witness_recurse(
    datum: SolvableGroupDatum,
    combo: IntVector,
    t_val: IntVector,
    vpos: QVector,
    wpos: int,
    vneg: QVector,
    wneg: int,
    prev_dim: int,
) -> WitnessDescriptor:
    lie = datum.lie
    npos = valuation_of_character(datum.weights[wpos], t_val)
    nneg = valuation_of_character(datum.weights[wneg], t_val)
    if npos <= 0 or nneg >= 0:
        raise MalformedDatum("sign invariant broken during recursion")
    for v in (vpos, vneg):
        if _is_homogeneous(lie, v) is None:
            raise MalformedDatum("non-homogeneous generator during recursion")

    sub = subalgebra_generated(lie, [vpos, vneg])
    if len(sub) >= prev_dim:
        raise MalformedDatum("generated subalgebra failed to shrink")

    def descriptor(kind: str, basis: Sequence[QVector]) -> WitnessDescriptor:
        for x in basis:
            for y in basis:
                b = lie.bracket(x, y)
                if any(c != 0 for c in b) and not _in_span(_rref_frac([list(v) for v in basis]), b):
                    raise MalformedDatum("witness basis is not bracket-closed")
        return WitnessDescriptor(
            kind=kind,
            alpha=wpos,
            beta=wneg,
            n_alpha=npos,
            n_beta=nneg,
            n_u=npos,
            n_v=-nneg,
            n_prime=datum.field_params.ramification,
            torus_combination=combo,
            subalgebra_basis=tuple(basis),
        )

    z = lie.bracket(vpos, vneg)
    if all(c == 0 for c in z):
        return descriptor("G3", (vpos, vneg))

    wz = _weight_sum_index(datum, wpos, wneg)
    if all(c == 0 for c in lie.bracket(vpos, z)) and all(
        c == 0 for c in lie.bracket(vneg, z)
    ):
        return descriptor("H3", (vpos, vneg, z))

    ndelta = npos + nneg
    if ndelta > 0:
        return _witness_recurse(datum, combo, t_val, z, wz, vneg, wneg, len(sub))
    if ndelta < 0:
        return _witness_recurse(datum, combo, t_val, vpos, wpos, z, wz, len(sub))
    zz = lie.bracket(vpos, z)
    if any(c != 0 for c in zz):
        wgamma = _weight_sum_index(datum, wpos, wz)
        return _witness_recurse(datum, combo, t_val, zz, wgamma, vneg, wneg, len(sub))
    zz = lie.bracket(vneg, z)
    wgamma = _weight_sum_index(datum, wneg, wz)
    return _witness_recurse(datum, combo, t_val, vpos, wpos, zz, wgamma, len(sub))


def _weight_sum_index(datum: SolvableGroupDatum, wi: int, wj: int) -> int:
    target = tuple(
        a + b
        for a, b in zip(datum.weights[wi].exponents, datum.weights[wj].exponents)
    )
    idx = datum.weight_index(target)
    if idx is None:
        raise MalformedDatum(f"weight {target} missing from the weight set")
    return idx
