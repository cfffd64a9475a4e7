"""Decision procedures for coherence of augmented group algebras.

decide_solvable runs the lattice criterion on a solvable datum: the algebra
is coherent exactly when the valuation-image lattice is cyclic with a
generator in the nonnegative cone. Both branches come with constructive
certificates which are re-verified before a verdict is returned.

decide_semisimple applies the rank rule for split-semisimple groups; the
type-A Borel construction ties the two procedures together and is also the
source of the embedded witness on the negative branch. decide picks the
procedure for a parsed descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Union

from . import int_lattice, root_datum
from .int_lattice import IntVector, is_zero
from .root_datum import (
    PadicFieldParams,
    SolvableGroupDatum,
    Weight,
    WitnessDescriptor,
    torus_images,
    validate,
    valuation_of_character,
    witness_subgroup,
)


class InvalidDatum(ValueError):
    pass


class InvalidLabel(ValueError):
    pass


@dataclass(frozen=True)
class Coherent:
    """Positive verdict: the image lattice is Z * generator, generator >= 0."""

    generator: IntVector
    trivial_image: bool = False


@dataclass(frozen=True)
class NotCoherent:
    """Negative verdict with certificate.

    mixed_witness = f(torus_combination) lies outside the sign cone; alpha
    and beta index a strictly positive and a strictly negative coordinate,
    and embedded describes the minimal witness subgroup those weights give.
    """

    mixed_witness: IntVector
    torus_combination: IntVector
    alpha: int
    beta: int
    embedded: WitnessDescriptor


Verdict = Union[Coherent, NotCoherent]


def decide_solvable(datum: SolvableGroupDatum) -> Verdict:
    """Coherence verdict for a solvable datum, with verified certificates."""
    try:
        violations = validate(datum)
    except ValueError as e:  # refused input, e.g. above the validation bound
        raise InvalidDatum(str(e)) from None
    if violations:
        raise InvalidDatum("; ".join(violations))

    images = torus_images(datum)
    n_phi = len(datum.weights)
    result, coeffs = int_lattice.cyclic_cone_generator_tracked(images, n_phi)

    if result.generator is not None:
        gen = result.generator
        return Coherent(generator=gen, trivial_image=is_zero(gen))

    witness = result.mixed_witness
    combo = tuple(coeffs)
    alpha = next(i for i, c in enumerate(witness) if c > 0)
    beta = next(i for i, c in enumerate(witness) if c < 0)
    embedded = witness_subgroup(datum, combo, alpha, beta)
    _check_embedded(datum, combo, embedded)
    return NotCoherent(
        mixed_witness=witness,
        torus_combination=combo,
        alpha=alpha,
        beta=beta,
        embedded=embedded,
    )


def _check_embedded(
    datum: SolvableGroupDatum, combo: IntVector, w: WitnessDescriptor
) -> None:
    """Re-verify the embedded witness: sign pattern and bracket closure."""
    t_val = root_datum._torus_element(datum, combo)
    if valuation_of_character(datum.weights[w.alpha], t_val) != w.n_alpha:
        raise AssertionError("witness n_alpha mismatch")
    if valuation_of_character(datum.weights[w.beta], t_val) != w.n_beta:
        raise AssertionError("witness n_beta mismatch")
    if not (w.n_alpha > 0 > w.n_beta):
        raise AssertionError("witness valuations are not of opposite sign")
    expected_dim = 2 if w.kind == "G3" else 3
    if len(w.subalgebra_basis) != expected_dim:
        raise AssertionError(f"{w.kind} witness must have dimension {expected_dim}")
    if not root_datum._bracket_closed(datum.lie, w.subalgebra_basis):
        raise AssertionError("witness subalgebra is not bracket-closed")


@dataclass(frozen=True)
class RootSystemLabel:
    """A reduced irreducible root system type, e.g. A1 or G2."""

    family: str
    rank: int

    def __post_init__(self):
        fam, r = self.family, self.rank
        valid = (
            (fam == "A" and r >= 1)
            or (fam in ("B", "C") and r >= 2)
            or (fam == "D" and r >= 3)
            or (fam == "E" and r in (6, 7, 8))
            or (fam == "F" and r == 4)
            or (fam == "G" and r == 2)
        )
        if not valid:
            raise InvalidLabel(f"no root system of type {fam}{r}")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class SemisimpleVerdict:
    coherent: bool
    reason: str


def decide_semisimple(rs: RootSystemLabel) -> SemisimpleVerdict:
    """Rank rule: coherent exactly for rank-1 root systems (SL2/PGL2)."""
    if rs.rank == 1:
        return SemisimpleVerdict(
            coherent=True,
            reason="rank-1 root system: the group is SL2 or PGL2, whose augmented "
            "algebra is coherent",
        )
    return SemisimpleVerdict(
        coherent=False,
        reason=f"root system {rs} has rank {rs.rank} >= 2: the Borel subgroup's "
        "valuation image has rank >= 2, so it cannot be cyclic",
    )


def decide(
    parsed: Union[SolvableGroupDatum, RootSystemLabel]
) -> Union[Verdict, SemisimpleVerdict]:
    """Verdict for a parsed descriptor: the rank rule for a root-system
    label, the lattice criterion for a solvable datum."""
    if isinstance(parsed, RootSystemLabel):
        return decide_semisimple(parsed)
    return decide_solvable(parsed)


def borel_datum_type_A(rank: int, field_params: PadicFieldParams) -> SolvableGroupDatum:
    """Borel-type solvable datum for type A_rank.

    The unipotent part is the strictly upper triangular (rank+1) x (rank+1)
    matrices with basis E_ij (row-major over i < j) and brackets
    [E_ij, E_kl] = d_jk E_il - d_li E_kj. Torus coordinates are the diagonal
    valuations with the last entry pinned to zero, leaving d = rank free
    coordinates; the torus generators are the standard basis of Z^rank.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    n = rank + 1
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pos_index = {pos: k for k, pos in enumerate(positions)}

    def eps(i: int) -> List[int]:
        # Valuation coordinate of diagonal entry i; the last entry is pinned.
        return [1 if k == i else 0 for k in range(rank)] if i < rank else [0] * rank

    weights = []
    for (i, j) in positions:
        exps = tuple(a - b for a, b in zip(eps(i), eps(j)))
        weights.append(Weight(exponents=exps, multiplicity=1))

    brackets = {}
    for a, (i, j) in enumerate(positions):
        for b, (k, l) in enumerate(positions):
            if a >= b:
                continue
            terms = {}
            if j == k:
                terms[pos_index[(i, l)]] = terms.get(pos_index[(i, l)], Fraction(0)) + 1
            if l == i:
                terms[pos_index[(k, j)]] = terms.get(pos_index[(k, j)], Fraction(0)) - 1
            terms = {k2: v for k2, v in terms.items() if v != 0}
            if terms:
                brackets[(a, b)] = terms

    lie = root_datum.GradedLieAlgebraQ(
        dim=len(positions),
        weight_of=list(range(len(positions))),
        brackets=brackets,
        labels=tuple(f"E{i + 1}{j + 1}" for (i, j) in positions),
    )
    return SolvableGroupDatum(
        field_params=field_params,
        torus_rank=rank,
        torus_generators=tuple(
            tuple(1 if k == a else 0 for k in range(rank)) for a in range(rank)
        ),
        weights=tuple(weights),
        lie=lie,
    )
