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
on every bracket, Jacobi on every basis triple that can fail it, and
nilpotency through the lower central series (de Graaf, Lie Algebras: Theory
and Algorithms, North-Holland 2000, sec. 1.15 and ch. 5). These kernels
touch only nonzero structure constants. A Jacobi sum can be nonzero only on
a triple that holds a pair with a nonzero bracket, so only those triples are
summed, each in a dict keyed by target index. Each series term is spanned by
the [e_i, y] formed from a right-index j -> [(i, [e_i, e_j])] of the nonzero
table entries, and validate() only runs the series to its end, never
densifying it. Brackets of vectors run on sparse {index: Fraction} rows
(`_bracket`), and both the series and the witness closure check eliminate
sparse rows in the shared echelon loop of `echelon`, run over Q. The results
equal those of a dense scan, since RREF over Q is unique.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .echelon import _echelon, _reduce, is_prime
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


# Q as a field for the shared echelon loop: Fraction values are canonical
# as they are, and Fraction(1) / x inverts them, ints included, so every
# row the loop scales holds Fractions and the elimination stays exact.
def _same(x: Fraction) -> Fraction:
    return x


def _recip(x: Fraction) -> Fraction:
    return Fraction(1) / x


def _sparse(v: Sequence[Fraction]) -> Dict[int, Fraction]:
    return {k: a for k, a in enumerate(v) if a}


def _dense(v: Dict[int, Fraction], dim: int) -> QVector:
    zero = Fraction(0)
    return tuple(v.get(k, zero) for k in range(dim))


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

    def antisymmetry_violations(self) -> List[str]:
        """One line per nonzero diagonal entry and per pair given in both
        orientations with brackets that are not negatives of each other."""
        out = []
        for (i, j), terms in self._raw.items():
            if i == j and terms:
                out.append(f"[e{i + 1}, e{i + 1}] must vanish")
            if i < j and (j, i) in self._raw:
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


def _bracket(
    lie: GradedLieAlgebraQ, x: Dict[int, Fraction], y: Dict[int, Fraction]
) -> Dict[int, Fraction]:
    """[x, y] of sparse rows {index: value}, as a new row without zeros."""
    table = lie._table
    out: Dict[int, Fraction] = {}
    for i, xi in x.items():
        for j, yj in y.items():
            terms = table.get((i, j))
            if terms:
                f = xi * yj
                for k, c in terms.items():
                    out[k] = out.get(k, 0) + f * c
    return {k: c for k, c in out.items() if c}


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

    # Grading: a nonzero bracket lands in the weight space of the sum. The
    # table holds the nonzero brackets only; sorted, they come in pair order.
    table = lie._table
    pairs = sorted(ij for ij in table if ij[0] < ij[1])
    for i, j in pairs:
        terms = table[(i, j)]
        wi = datum.weights[lie.weight_of[i]].exponents
        wj = datum.weights[lie.weight_of[j]].exponents
        target = tuple(a + b for a, b in zip(wi, wj))
        for k in terms:
            if datum.weights[lie.weight_of[k]].exponents != target:
                out.append(
                    f"bracket [e{i + 1}, e{j + 1}] hits e{k + 1} outside weight {target}"
                )

    # Jacobi on every triple that can fail it. Each cyclic term [a, [b, c]]
    # vanishes when [b, c] = 0, so a triple none of whose pairs has a
    # nonzero bracket sums to zero. The others are visited in sorted order,
    # which is the order of a scan over all triples.
    triples = sorted(
        {tuple(sorted((a, b, c))) for b, c in pairs for a in range(lie.dim) if a != b and a != c}
    )
    for i, j, k in triples:
        acc: Dict[int, Fraction] = {}
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            for m, cm in table.get((b, c), {}).items():
                for n, cn in table.get((a, m), {}).items():
                    acc[n] = acc.get(n, 0) + cm * cn
        if any(acc.values()):
            out.append(f"Jacobi identity fails on (e{i + 1}, e{j + 1}, e{k + 1})")

    try:
        for _ in _lcs_terms(lie):
            pass
    except NotNilpotent:
        out.append("lower central series does not reach zero")

    return out


def _bracket_closed(lie: GradedLieAlgebraQ, basis: Sequence[QVector]) -> Optional[int]:
    """The dimension of the span of the basis vectors if the bracket of any
    two of them lies in it, else None. The dimension is the length of the
    echelon basis that the membership test reduces against.

    The table is antisymmetric, so [x, x] = 0 and [y, x] = -[x, y]: the
    pairs a < b of the basis decide closure."""
    rows = [_sparse(v) for v in basis]
    # _echelon reduces its rows in place: it gets copies of the rows that
    # are bracketed below.
    span = _echelon([dict(r) for r in rows], _same, _recip)
    if any(
        _reduce(_bracket(lie, rows[a], rows[b]), span, _same)
        for a in range(len(rows))
        for b in range(a + 1, len(rows))
    ):
        return None
    return len(span)


def _lcs_terms(lie: GradedLieAlgebraQ) -> Iterator[Dict[int, Dict[int, Fraction]]]:
    """The sparse RREF bases of g^2, g^3, ... of the lower central series,
    the last of them empty. Raises NotNilpotent at the first term that
    does not descend strictly.

    g^2 is spanned by the table entries, and g^(k+1) by the [e_i, y], y a
    basis row of g^k. These come from the right index
    j -> [(i, [e_i, e_j])] of the nonzero table entries, so only the i with
    a nonzero [e_i, e_j] for some j in the support of y give a row.
    """
    by_right: Dict[int, List[Tuple[int, Dict[int, Fraction]]]] = {}
    for (i, j), terms in lie._table.items():
        by_right.setdefault(j, []).append((i, terms))
    # _echelon reduces its rows in place, so it gets copies of the entries.
    rows = [dict(terms) for (i, j), terms in lie._table.items() if i < j]
    size = lie.dim
    while size:
        term = _echelon(rows, _same, _recip)
        if len(term) >= size:
            raise NotNilpotent("lower central series fails to descend to zero")
        yield term
        size = len(term)
        rows = []
        for y in term.values():
            acc: Dict[int, Dict[int, Fraction]] = {}  # i -> [e_i, y]
            for j, yj in y.items():
                for i, terms in by_right.get(j, ()):
                    row = acc.setdefault(i, {})
                    for k, c in terms.items():
                        row[k] = row.get(k, 0) + yj * c
            rows += ({k: c for k, c in row.items() if c} for row in acc.values())


def lower_central_series(lie: GradedLieAlgebraQ) -> List[List[QVector]]:
    """Descending chain g = g^1 >= g^2 = [g, g^1] >= ... down to zero.

    The terms after g^1 are those of `_lcs_terms`, each returned as its
    canonical RREF basis of dense vectors. Raises NotNilpotent if the chain
    stabilizes at a nonzero term.
    """
    chain = [[_dense({i: Fraction(1)}, lie.dim) for i in range(lie.dim)]]
    chain += ([_dense(row, lie.dim) for row in term.values()] for term in _lcs_terms(lie))
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
    # The generators are sparse rows, nonzero throughout: z, zpos and zneg
    # replace one only when they are nonzero.
    vpos, vneg = {i: Fraction(1)}, {j: Fraction(1)}

    wpos, wneg = alpha, beta
    weight_of = lie.weight_of
    for _ in range(lie.dim):
        # Each generator lies in the weight space tracked for it, as a valid
        # grading guarantees.
        if any(weight_of[k] != wpos for k in vpos) or any(weight_of[k] != wneg for k in vneg):
            raise MalformedDatum("non-homogeneous generator in the witness search")
        z = _bracket(lie, vpos, vneg)
        if not z:
            basis = (vpos, vneg)
            break
        wz = _weight_sum_index(datum, wpos, wneg)
        zpos = _bracket(lie, vpos, z)
        zneg = None if zpos else _bracket(lie, vneg, z)
        if zneg is not None and not zneg:
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
        subalgebra_basis=tuple(_dense(v, lie.dim) for v in basis),
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
