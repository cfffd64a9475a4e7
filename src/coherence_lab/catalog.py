"""Named-group catalog with expected verdicts.

Each entry carries a full descriptor, the expected verdict, and for the two
minimal non-coherent groups the expected kind of embedded witness. The
catalog doubles as a regression fixture: catalog_check() re-decides every
entry from scratch and compares.

Reductive groups like GL_n appear under the root system of their derived
group (GL_n is not semisimple, but a non-coherent closed subgroup settles
the verdict, so the rank rule applies unchanged for n >= 3).
"""

from __future__ import annotations

from typing import Any, Dict, List

from .coherence import decide
from .descriptors import SCHEMA, parse_descriptor, verdict_to_json


def _semisimple(family: str, rank: int) -> Dict[str, Any]:
    return {"schema": SCHEMA, "kind": "semisimple", "family": family, "rank": rank}


def _solvable(
    p: int,
    torus_rank: int,
    torus_generators,
    weights,
    basis_weights,
    brackets,
) -> Dict[str, Any]:
    return {
        "schema": SCHEMA,
        "kind": "solvable",
        "p": p,
        "degree": 1,
        "ramification": 1,
        "residue_degree": 1,
        "torus_rank": torus_rank,
        "torus_generators": torus_generators,
        "weights": weights,
        "basis_weights": basis_weights,
        "brackets": brackets,
    }


CATALOG: Dict[str, Dict[str, Any]] = {
    "Qp": {
        "descriptor": _solvable(2, 0, [], [{"exponents": [], "dim": 1}], [0], []),
        "expected": "coherent",
        "note": "the additive group of Q_p; trivial torus, 1-dim abelian",
    },
    "Qp^3": {
        "descriptor": _solvable(2, 0, [], [{"exponents": [], "dim": 3}], [0, 0, 0], []),
        "expected": "coherent",
        "note": "Q_p^3; trivial torus, 3-dim abelian",
    },
    "U3": {
        "descriptor": _solvable(
            2,
            0,
            [],
            [{"exponents": [], "dim": 3}],
            [0, 0, 0],
            [{"i": 0, "j": 1, "terms": [{"k": 2, "c": "1/1"}]}],
        ),
        "expected": "coherent",
        "note": "unitriangular 3x3 group (Heisenberg), no torus",
    },
    "pZ-semidirect-Qp": {
        "descriptor": _solvable(
            2, 1, [[1]], [{"exponents": [1], "dim": 1}], [0], []
        ),
        "expected": "coherent",
        "note": "diag(p, 1) acting on Q_p; image lattice Z*(1)",
    },
    "G3": {
        "descriptor": _solvable(
            3,
            1,
            [[1]],
            [{"exponents": [1], "dim": 1}, {"exponents": [-1], "dim": 1}],
            [0, 1],
            [],
        ),
        "expected": "not_coherent",
        "expected_witness": "G3",
        "note": "diag(u, v, 1) with v(u) > 0 > v(v) on an abelian 2-dim part",
    },
    "H3": {
        "descriptor": _solvable(
            3,
            1,
            [[1]],
            [
                {"exponents": [1], "dim": 1},
                {"exponents": [-1], "dim": 1},
                {"exponents": [0], "dim": 1},
            ],
            [0, 1, 2],
            [{"i": 0, "j": 1, "terms": [{"k": 2, "c": "1/1"}]}],
        ),
        "expected": "not_coherent",
        "expected_witness": "H3",
        "note": "diag(u, 1, 1/v) on the full unitriangular 3x3 group",
    },
    "SL2": {
        "descriptor": _semisimple("A", 1),
        "expected": "coherent",
        "note": "rank-1 split semisimple",
    },
    "PGL2": {
        "descriptor": _semisimple("A", 1),
        "expected": "coherent",
        "note": "rank-1 split semisimple (adjoint form)",
    },
    "SL3": {
        "descriptor": _semisimple("A", 2),
        "expected": "not_coherent",
        "note": "rank 2",
    },
    "GL3": {
        "descriptor": _semisimple("A", 2),
        "expected": "not_coherent",
        "note": "contains SL3 as a closed subgroup",
    },
    "GL4": {
        "descriptor": _semisimple("A", 3),
        "expected": "not_coherent",
        "note": "contains SL4 as a closed subgroup",
    },
    "Sp4": {
        "descriptor": _semisimple("C", 2),
        "expected": "not_coherent",
        "note": "type C2, rank 2",
    },
    "A2": {
        "descriptor": _semisimple("A", 2),
        "expected": "not_coherent",
        "note": "rank rule, rank 2",
    },
    "B2": {
        "descriptor": _semisimple("B", 2),
        "expected": "not_coherent",
        "note": "rank rule, rank 2",
    },
    "C2": {
        "descriptor": _semisimple("C", 2),
        "expected": "not_coherent",
        "note": "rank rule, rank 2",
    },
    "G2": {
        "descriptor": _semisimple("G", 2),
        "expected": "not_coherent",
        "note": "rank rule, rank 2",
    },
}


def catalog_check() -> List[Dict[str, Any]]:
    """Re-decide every entry; one result row per name, in catalog order."""
    rows = []
    for name, entry in CATALOG.items():
        vjson = verdict_to_json(decide(parse_descriptor(entry["descriptor"])))
        got = vjson["verdict"]
        witness = vjson["embedded"]["kind"] if "embedded" in vjson else None
        rows.append(
            {
                "name": name,
                "expected": entry["expected"],
                "got": got,
                "witness": witness,
                "ok": got == entry["expected"]
                and entry.get("expected_witness") in (None, witness),
            }
        )
    return rows
