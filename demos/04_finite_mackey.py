"""Walkthrough: restriction of induced modules over finite p-groups.

Everything the double-coset formula asserts is rebuilt explicitly at finite
scale: both sides and the comparison map as block maps (each coset block
goes to one other block through one small matrix), its equivariance and
invertibility, and the glued coset representatives, all read from one
double-coset decomposition; plus the commutator identity that drives the
augmentation ideal comparison in the Heisenberg case.
"""

from coherence_lab import finite_groups as fg

G = fg.FiniteGroup(3, 1)
print(f"group: {G.name}, order {G.order}")

center = fg.Subgroup(G, [G.index[(0, 0, 1)]])
row = fg.Subgroup(G, [G.index[(1, 0, 0)], G.index[(0, 0, 1)]])
print(f"H = center (order {center.order}), G1 = top row (order {row.order})")
print("double coset representatives:",
      [G.elements[i] for i in fg.double_cosets(G, center, row)])
print()

module = fg.random_unipotent_module(row, 3, dim=2, seed=2024)
rep = fg.mackey_check(G, center, row, module)
print("restriction of the induced module vs the double-coset sum:")
print(f"  dimensions {rep.lhs_dim} = {rep.rhs_dim}: {rep.dims_match}")
print(f"  comparison map equivariant: {rep.psi_equivariant}")
print(f"  comparison map invertible over F_3: {rep.psi_bijective}")
print("  glued coset representatives partition the right cosets:",
      rep.coset_reps_ok)
print()

print("augmentation ideal dimensions:")
full = G.full()
print("  dim eps(G) =", len(fg.augmentation_basis(G, full, 3)), "= |G| - 1")
print("  dim eps(center) =", len(fg.augmentation_basis(G, center, 3)),
      "= |G| - |G/center|")
print()

print("the Heisenberg commutator identity, by exact convolution:")
for p, a in ((2, 1), (3, 1), (2, 2)):
    r = fg.commutator_identity_report(p, a)
    print(
        f"  U3(Z/{p**a}): group identity {r.group_identity}, "
        f"st - ts = (1+t)(1+s)w: {r.algebra_identity}, "
        f"swapped unit order holds: {r.printed_order_holds}"
    )
