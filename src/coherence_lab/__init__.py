"""Exact computational algebra for coherence of mod-p augmented group
algebras of p-adic Lie groups: lattice criteria with constructive
certificates, bounded skew-polynomial relation checks, and finite-scale
restriction-of-induction verification.

The names of `__all__` are resolved on first access (PEP 562), so that
importing the package, or one of its submodules, loads no other layer."""

import importlib

__version__ = "0.2.0"

# Public name -> the submodule that defines it.
_HOMES = {
    "Coherent": "coherence",
    "NotCoherent": "coherence",
    "RootSystemLabel": "coherence",
    "SemisimpleVerdict": "coherence",
    "borel_datum_type_A": "coherence",
    "decide_semisimple": "coherence",
    "decide_solvable": "coherence",
    "IntLattice": "int_lattice",
    "cyclic_cone_generator": "int_lattice",
    "in_sign_cone": "int_lattice",
    "merge_pair": "int_lattice",
    "GradedLieAlgebraQ": "root_datum",
    "PadicFieldParams": "root_datum",
    "SolvableGroupDatum": "root_datum",
    "Weight": "root_datum",
    "WitnessDescriptor": "root_datum",
    "f_image": "root_datum",
    "f_matrix": "root_datum",
    "lower_central_series": "root_datum",
    "validate": "root_datum",
    "valuation_of_character": "root_datum",
    "witness_subgroup": "root_datum",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        # Not a public name: `from coherence_lab import <submodule>` then
        # imports the submodule.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
