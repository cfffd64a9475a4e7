"""The Schreier-edge module validator, kept as a test oracle for the
polycyclic-relation check that `coherence_lab.finite_groups.FinModule`
runs on construction.

`validate_by_edges` is the check the program used before: every generator
matrix must be invertible, and x*g must act as x followed by g for every
element x of the subgroup and every generator g. By induction on path
length that is the whole homomorphism property. `action_of` multiplies
along the edges x -> x*g recorded in `Subgroup.steps`, so only the other
edges can fail (Schreier's lemma) and the tree edges are skipped. It raises
the same two messages as the program, in the same order.
"""

from __future__ import annotations

from coherence_lab.finite_groups import FinModule, _matmul, _rank


def validate_by_edges(module: FinModule) -> None:
    for m in module.gen_actions:
        if _rank(m, module.p) != module.dim:
            raise ValueError("action matrix is singular")
    S = module.subgroup
    G = S.parent
    tree = set(filter(None, S.steps.values()))
    edges = list(enumerate(zip(S.generators, module.gen_actions)))
    for x in S.elements:
        ax = module.action_of(x)
        for gi, (g, a) in edges:
            if (x, gi) in tree:
                continue
            if _matmul(ax, a, module.p) != module.action_of(G.mul(x, g)):
                raise ValueError("generator actions violate the group law")
