"""JSON group descriptors and report serialization.

The on-disk schema is versioned ("coherence-lab/1"). Rational structure
constants ride as "num/den" strings so no float ever touches a descriptor,
and serialization is insertion-ordered so reports are byte-deterministic.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any, Dict, Union

from .coherence import (
    Coherent,
    NotCoherent,
    RootSystemLabel,
    SemisimpleVerdict,
    Verdict,
)
from .root_datum import (
    GradedLieAlgebraQ,
    PadicFieldParams,
    SolvableGroupDatum,
    Weight,
    WitnessDescriptor,
)

SCHEMA = "coherence-lab/1"

# Bound on every bracket constant's numerator and on the least common
# denominator of all of them. README "Scale limits" derives from it that
# every rational a report prints stays under the int/str digit limit.
BRACKET_BOUND = 10**190


class DescriptorError(ValueError):
    pass


def _frac_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _frac_from_str(s: str) -> Fraction:
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as e:
        raise DescriptorError(f"bad rational {s!r}: {e}") from None


def _int(x: Any) -> int:
    """A descriptor integer: JSON floats, strings and booleans are refused,
    never truncated or coerced."""
    if type(x) is not int:
        raise DescriptorError(f"expected an integer, got {x!r}")
    return x


def _entry(x: Any) -> int:
    """A weight exponent or torus-generator entry: an integer with
    |x| < 2**31, so that every valuation image stays below d * 2**62."""
    x = _int(x)
    if not -(2**31) < x < 2**31:
        raise DescriptorError("weight exponent or torus entry outside (-2**31, 2**31)")
    return x


def _check_bracket_constants(brackets: Dict) -> None:
    common = 1
    for terms in brackets.values():
        for c in terms.values():
            if abs(c.numerator) >= BRACKET_BOUND:
                raise DescriptorError("bracket constant numerator at or above 10**190")
            common = math.lcm(common, c.denominator)
            if common >= BRACKET_BOUND:
                raise DescriptorError(
                    "bracket constant denominators: least common multiple at or above 10**190"
                )


def datum_to_descriptor(datum: SolvableGroupDatum) -> Dict[str, Any]:
    brackets = []
    for i in range(datum.lie.dim):
        for j in range(i + 1, datum.lie.dim):
            terms = datum.lie.bracket_basis(i, j)
            if terms:
                brackets.append(
                    {
                        "i": i,
                        "j": j,
                        "terms": [
                            {"k": k, "c": _frac_to_str(c)}
                            for k, c in sorted(terms.items())
                        ],
                    }
                )
    return {
        "schema": SCHEMA,
        "kind": "solvable",
        "p": datum.field_params.p,
        "degree": datum.field_params.degree,
        "ramification": datum.field_params.ramification,
        "residue_degree": datum.field_params.residue_degree,
        "torus_rank": datum.torus_rank,
        "torus_generators": [list(g) for g in datum.torus_generators],
        "weights": [
            {"exponents": list(w.exponents), "dim": w.multiplicity}
            for w in datum.weights
        ],
        "basis_weights": list(datum.lie.weight_of),
        "brackets": brackets,
    }


def label_to_descriptor(label: RootSystemLabel) -> Dict[str, Any]:
    return {
        "schema": SCHEMA,
        "kind": "semisimple",
        "family": label.family,
        "rank": label.rank,
    }


def to_descriptor(parsed: Union[SolvableGroupDatum, RootSystemLabel]) -> Dict[str, Any]:
    """The canonical descriptor of a parsed label or datum."""
    if isinstance(parsed, RootSystemLabel):
        return label_to_descriptor(parsed)
    return datum_to_descriptor(parsed)


def parse_descriptor(obj: Dict[str, Any]) -> Union[SolvableGroupDatum, RootSystemLabel]:
    if not isinstance(obj, dict):
        raise DescriptorError("descriptor must be a JSON object")
    schema = obj.get("schema")
    if schema != SCHEMA:
        raise DescriptorError(f"unsupported schema {schema!r} (expected {SCHEMA!r})")
    kind = obj.get("kind")
    if kind == "semisimple":
        try:
            return RootSystemLabel(str(obj["family"]), _int(obj["rank"]))
        except KeyError as e:
            raise DescriptorError(f"semisimple descriptor missing field {e}") from None
        except (TypeError, ValueError) as e:
            raise DescriptorError(f"malformed semisimple descriptor: {e}") from None
    if kind != "solvable":
        raise DescriptorError(f"unknown descriptor kind {kind!r}")
    try:
        field = PadicFieldParams(
            p=_int(obj["p"]),
            degree=_int(obj.get("degree", 1)),
            ramification=_int(obj.get("ramification", 1)),
            residue_degree=_int(obj.get("residue_degree", 1)),
        )
        weights = tuple(
            Weight(tuple(_entry(x) for x in w["exponents"]), _int(w.get("dim", 1)))
            for w in obj["weights"]
        )
        basis_weights = [_int(x) for x in obj["basis_weights"]]
        brackets: Dict = {}
        for entry in obj.get("brackets", []):
            terms = {
                _int(t["k"]): _frac_from_str(str(t["c"])) for t in entry["terms"]
            }
            brackets[(_int(entry["i"]), _int(entry["j"]))] = terms
        _check_bracket_constants(brackets)
        lie = GradedLieAlgebraQ(
            dim=len(basis_weights), weight_of=basis_weights, brackets=brackets
        )
        return SolvableGroupDatum(
            field_params=field,
            torus_rank=_int(obj["torus_rank"]),
            torus_generators=tuple(
                tuple(_entry(x) for x in g) for g in obj["torus_generators"]
            ),
            weights=weights,
            lie=lie,
        )
    except KeyError as e:
        raise DescriptorError(f"solvable descriptor missing field {e}") from None
    except (TypeError, ValueError) as e:
        raise DescriptorError(f"malformed solvable descriptor: {e}") from None


def witness_to_json(w: WitnessDescriptor) -> Dict[str, Any]:
    return {
        "kind": w.kind,
        "alpha": w.alpha,
        "beta": w.beta,
        "n_alpha": w.n_alpha,
        "n_beta": w.n_beta,
        "n_u": w.n_u,
        "n_v": w.n_v,
        "n_prime": w.n_prime,
        "torus_combination": list(w.torus_combination),
        "subalgebra_basis": [
            [_frac_to_str(c) for c in vec] for vec in w.subalgebra_basis
        ],
    }


def verdict_to_json(verdict: Union[Verdict, SemisimpleVerdict]) -> Dict[str, Any]:
    if isinstance(verdict, Coherent):
        return {
            "verdict": "coherent",
            "trivial_image": verdict.trivial_image,
            "generator": list(verdict.generator),
        }
    if isinstance(verdict, NotCoherent):
        return {
            "verdict": "not_coherent",
            "mixed_witness": list(verdict.mixed_witness),
            "torus_combination": list(verdict.torus_combination),
            "alpha": verdict.alpha,
            "beta": verdict.beta,
            "embedded": witness_to_json(verdict.embedded),
        }
    if isinstance(verdict, SemisimpleVerdict):
        return {
            "verdict": "coherent" if verdict.coherent else "not_coherent",
            "reason": verdict.reason,
        }
    raise TypeError(f"not a verdict: {verdict!r}")


def dumps_report(report: Dict[str, Any]) -> str:
    """Deterministic JSON text (insertion order, two-space indent)."""
    return json.dumps(report, indent=2) + "\n"


def loads_descriptor(text: str) -> Union[SolvableGroupDatum, RootSystemLabel]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise DescriptorError(f"JSON parse error at line {e.lineno}: {e.msg}") from None
    except ValueError as e:  # an integer above the int/str digit limit
        raise DescriptorError(f"JSON parse error: {e}") from None
    except RecursionError:
        raise DescriptorError("JSON parse error: nesting too deep") from None
    return parse_descriptor(obj)
