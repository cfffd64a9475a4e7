"""Exact computational algebra for coherence of mod-p augmented group
algebras of p-adic Lie groups: lattice criteria with constructive
certificates, bounded skew-polynomial relation checks, and finite-scale
restriction-of-induction verification."""

__version__ = "0.2.0"

from .coherence import (
    Coherent,
    NotCoherent,
    RootSystemLabel,
    SemisimpleVerdict,
    borel_datum_type_A,
    decide_semisimple,
    decide_solvable,
)
from .int_lattice import IntLattice, cyclic_cone_generator, in_sign_cone, merge_pair
from .root_datum import (
    GradedLieAlgebraQ,
    PadicFieldParams,
    SolvableGroupDatum,
    Weight,
    WitnessDescriptor,
    f_image,
    f_matrix,
    lower_central_series,
    validate,
    valuation_of_character,
    witness_subgroup,
)

__all__ = [
    "__version__",
    "Coherent",
    "NotCoherent",
    "RootSystemLabel",
    "SemisimpleVerdict",
    "borel_datum_type_A",
    "decide_semisimple",
    "decide_solvable",
    "IntLattice",
    "cyclic_cone_generator",
    "in_sign_cone",
    "merge_pair",
    "GradedLieAlgebraQ",
    "PadicFieldParams",
    "SolvableGroupDatum",
    "Weight",
    "WitnessDescriptor",
    "f_image",
    "f_matrix",
    "lower_central_series",
    "validate",
    "valuation_of_character",
    "witness_subgroup",
]
