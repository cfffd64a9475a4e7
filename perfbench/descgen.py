"""Seeded generator of solvable-group descriptors for the decide-suite workload.

The benchmark owns this generator so that edits to the test suite cannot
shift benchmark inputs. It writes descriptors in the on-disk schema
("coherence-lab/1") directly from its own construction; the only program
code it touches is the caller's validation of each result.

Kinds, drawn uniformly: abelian, Heisenberg, filiform and type-A Borel of
rank 1..3 (torus rank and exponents small, as in the unit tests), plus the
type-A4 Borel (dimension 10, the largest Borel under the 12-dimensional
validation cap) with random torus generators.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

SCHEMA = "coherence-lab/1"
PRIMES = (2, 3, 5)
KINDS = ("abelian", "heisenberg", "filiform", "borel", "borel-a4")


def _exponents(rng: random.Random, d: int) -> Tuple[int, ...]:
    return tuple(rng.randint(-3, 3) for _ in range(d))


def _torus_generators(rng: random.Random, d: int) -> List[List[int]]:
    return [[rng.randint(-8, 8) for _ in range(d)] for _ in range(rng.randint(1, 3))]


def _bracket(i: int, j: int, terms: Dict[int, int]) -> Dict[str, Any]:
    return {"i": i, "j": j, "terms": [{"k": k, "c": f"{c}/1"} for k, c in sorted(terms.items())]}


def _abelian(rng: random.Random, d: int):
    n_weights = rng.randint(1, 4)
    exps = set()
    while len(exps) < n_weights:
        exps.add(_exponents(rng, d))
    weights, basis_weights = [], []
    for i, e in enumerate(sorted(exps)):
        mult = rng.randint(1, 2)
        weights.append((e, mult))
        basis_weights.extend([i] * mult)
    return weights, basis_weights, []


def _distinct_sums(rng: random.Random, d: int, n: int) -> List[Tuple[int, ...]]:
    """a, b, a+b, a+(a+b), ... (n vectors), redrawn until pairwise distinct."""
    while True:
        a, b = _exponents(rng, d), _exponents(rng, d)
        vecs = [a, b]
        while len(vecs) < n:
            vecs.append(tuple(x + y for x, y in zip(a, vecs[-1])))
        if len(set(vecs)) == n:
            return vecs


def _heisenberg(rng: random.Random, d: int):
    vecs = _distinct_sums(rng, d, 3)
    weights = [(v, 1) for v in vecs]
    return weights, [0, 1, 2], [_bracket(0, 1, {2: rng.randint(1, 3)})]


def _filiform(rng: random.Random, d: int):
    vecs = _distinct_sums(rng, d, 4)
    weights = [(v, 1) for v in vecs]
    return weights, [0, 1, 2, 3], [_bracket(0, 1, {2: 1}), _bracket(0, 2, {3: 1})]


def _borel(rank: int):
    """Upper-triangular (rank+1)^2 nilradical, basis E_ij row-major over
    i < j, [E_ij, E_kl] = d_jk E_il - d_li E_kj; the last diagonal
    coordinate is pinned so the torus has rank `rank`."""
    n = rank + 1
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {pos: k for k, pos in enumerate(positions)}

    def eps(i: int) -> List[int]:
        return [int(k == i) for k in range(rank)]

    weights = [(tuple(a - b for a, b in zip(eps(i), eps(j))), 1) for i, j in positions]
    brackets = []
    for a, (i, j) in enumerate(positions):
        for b in range(a + 1, len(positions)):
            k, l = positions[b]
            terms: Dict[int, int] = {}
            if j == k:
                terms[index[(i, l)]] = terms.get(index[(i, l)], 0) + 1
            if l == i:
                terms[index[(k, j)]] = terms.get(index[(k, j)], 0) - 1
            terms = {t: c for t, c in terms.items() if c}
            if terms:
                brackets.append(_bracket(a, b, terms))
    return weights, list(range(len(positions))), brackets


def random_descriptor(rng: random.Random) -> Dict[str, Any]:
    kind = rng.choice(KINDS)
    if kind == "borel":
        d = rng.randint(1, 3)
        weights, basis_weights, brackets = _borel(d)
    elif kind == "borel-a4":
        d = 4
        weights, basis_weights, brackets = _borel(d)
    else:
        d = rng.randint(1, 3)
        weights, basis_weights, brackets = {
            "abelian": _abelian,
            "heisenberg": _heisenberg,
            "filiform": _filiform,
        }[kind](rng, d)
    return {
        "schema": SCHEMA,
        "kind": "solvable",
        "p": rng.choice(PRIMES),
        "degree": 1,
        "ramification": 1,
        "residue_degree": 1,
        "torus_rank": d,
        "torus_generators": _torus_generators(rng, d),
        "weights": [{"exponents": list(e), "dim": m} for e, m in weights],
        "basis_weights": basis_weights,
        "brackets": brackets,
    }


def generate(seed: int, count: int) -> List[Dict[str, Any]]:
    rng = random.Random(seed)
    return [random_descriptor(rng) for _ in range(count)]
