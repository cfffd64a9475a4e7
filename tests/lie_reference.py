"""Dense reference implementations of the Lie-algebra layer, kept as test
oracles for the sparse kernels in coherence_lab.root_datum and for the
echelon loop over Q that it shares with fp_linalg (coherence_lab.echelon).

Every function here scans all coordinates and builds dense Fraction lists:
`rref` and `in_span` eliminate over whole rows (the program has no dense
rational elimination; the acceptance suite re-checks witness closure with
these two), `bracket` tests all dim^2 coordinate pairs, and
`lower_central_series` brackets dense basis vectors. `validate` sums the
Jacobi identity on every basis triple, in a dense list per triple, while
the program sums only the triples that hold a pair with a nonzero bracket
(the others vanish term by term) and runs its series without densifying
it. The results must equal the program's, chain for chain and violation
string for violation string. The program brackets only sparse rows, so
tests bracket dense vectors with `bracket`, and build basis vectors with
`basis_vector`, from here. `bracket_table` is the dim^2 pair scan that once
normalized the given structure constants; the program now builds the same
table from the given entries only. `subalgebra_generated` (the
closure of a set of vectors under the bracket) has no caller in the
program and lives here only as an oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from coherence_lab.root_datum import (
    GradedLieAlgebraQ,
    NotNilpotent,
    QVector,
    SolvableGroupDatum,
)


def rref(rows: Sequence[Sequence[Fraction]]) -> List[QVector]:
    work = [[Fraction(a) for a in r] for r in rows]
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


def in_span(rref_rows: Sequence[QVector], v: Sequence[Fraction]) -> bool:
    w = [Fraction(a) for a in v]
    for row in rref_rows:
        c = next(i for i, a in enumerate(row) if a != 0)
        if w[c] != 0:
            f = w[c] / row[c]
            w = [a - f * b for a, b in zip(w, row)]
    return all(a == 0 for a in w)


def bracket_table(
    dim: int, raw: Dict[Tuple[int, int], Dict[int, Fraction]]
) -> Dict[Tuple[int, int], Dict[int, Fraction]]:
    """Both orientations of every off-diagonal bracket; the i < j entry wins
    over a given (j, i) entry, and diagonal entries are ignored."""
    table: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            terms = raw.get((i, j))
            if terms is None and (j, i) in raw:
                terms = {k: -c for k, c in raw[(j, i)].items()}
            if terms:
                table[(i, j)] = dict(terms)
                table[(j, i)] = {k: -c for k, c in terms.items()}
    return table


def basis_vector(dim: int, i: int) -> QVector:
    return tuple(Fraction(int(k == i)) for k in range(dim))


def bracket(lie: GradedLieAlgebraQ, x: Sequence[Fraction], y: Sequence[Fraction]) -> QVector:
    out = [Fraction(0)] * lie.dim
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            for k, c in lie.bracket_basis(i, j).items():
                out[k] += xi * yj * c
    return tuple(out)


def subalgebra_generated(
    lie: GradedLieAlgebraQ, vectors: Sequence[Sequence[Fraction]]
) -> List[QVector]:
    """Canonical RREF basis of the smallest bracket-closed subspace
    containing the given vectors."""
    basis = rref(vectors)
    while True:
        new = []
        for x in basis:
            for y in basis:
                b = bracket(lie, x, y)
                if any(c != 0 for c in b) and not in_span(basis, b):
                    new.append(b)
        if not new:
            return basis
        basis = rref(list(basis) + new)


def lower_central_series(lie: GradedLieAlgebraQ) -> List[List[QVector]]:
    full = [basis_vector(lie.dim, i) for i in range(lie.dim)]
    chain = [rref(full)]
    while chain[-1]:
        prev = chain[-1]
        brackets = [bracket(lie, x, y) for x in full for y in prev]
        nxt = rref([b for b in brackets if any(c != 0 for c in b)])
        if len(nxt) >= len(prev):
            raise NotNilpotent("lower central series fails to descend to zero")
        chain.append(nxt)
    return chain


def validate(datum: SolvableGroupDatum) -> List[str]:
    """The violation list, with a dense accumulator per Jacobi triple."""
    lie = datum.lie
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
        return out
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
    for i in range(lie.dim):
        for j in range(i + 1, lie.dim):
            for k in range(j + 1, lie.dim):
                acc = [Fraction(0)] * lie.dim
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, cm in lie.bracket_basis(b, c).items():
                        for n, cn in lie.bracket_basis(a, m).items():
                            acc[n] += cm * cn
                if any(x != 0 for x in acc):
                    out.append(f"Jacobi identity fails on (e{i + 1}, e{j + 1}, e{k + 1})")
    try:
        lower_central_series(lie)
    except NotNilpotent:
        out.append("lower central series does not reach zero")
    return out
