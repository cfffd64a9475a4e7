"""Walkthrough: the twisted relation module at finite scale.

The augmentation ideal (s, t, D - E) of the two-variable twisted ring has a
relation module generated by three families; here we rebuild them, verify
them against the bounded syzygy kernel, and run the monomial obstruction
that forces infinite generation of the quotient module.
"""

from coherence_lab import obstruction as obs
from coherence_lab import skew_checks as sc
from coherence_lab.skew_poly import SkewPoly, ideal_membership_bounded

p, n_u, n_v = 2, 1, 1
ctx = sc.pair_context(p, n_u, n_v, trunc=8, window=6)
ring = ctx.base
s = SkewPoly.from_series(ctx, ring.var("s"))
t = SkewPoly.from_series(ctx, ring.var("t"))
D, E = ctx.gen("D"), ctx.gen("E")

print("twisted multiplication: moving D past a coefficient raises it")
print("  D * s =", D * s)
print("  E * t =", E * t)
print()

print("a telescoping membership certificate:")
cert = ideal_membership_bounded(ctx.gen("D", 3) - ctx.gen("E", 3), [D - E], (3, 3))
print("  D^3 - E^3 = lambda * (D - E) with lambda =", cert.coefficients[0])
print()

print("the relation generators:")
for name, (x, y) in sc.build_S_generators(ctx, n_u, n_v, m_max=2):
    print(f"  {name}: ({x}, {y})")
print()

print("bounded verification (soundness + margin-relative completeness):")
rep = sc.verify_relations(p=p, n_u=n_u, n_v=n_v, window=4, trunc=8, m_max=3)
print(f"  kernel dimension on the interior coordinates: {rep.kernel_dim}")
print(f"  interior kernel vectors checked against span(S): {rep.interior_checked}")
print(f"  soundness: {rep.soundness_ok}, completeness: {rep.completeness_ok}")
print()

print("the obstruction that keeps the quotient module infinitely generated:")
print("  s*t in some twisted product ideal (n_u=n_v=1)?",
      obs.monomial_obstruction(p, 1, 1, 1, 1, window=8))
print("  control with n_u=0:",
      obs.monomial_obstruction(p, 1, 1, 0, 1, window=8))
demo = obs.not_fg_demonstration(p, 1, 1, n_max=6, window=8)
print(f"  generator chain strict at all {len(demo.steps)} stages: {demo.all_strict}")
print()

print("one-variable machinery behind the coherent cases:")
print("  free rank-p decomposition:", sc.one_var_free_decomposition(2, 16).ok)
c1 = sc.one_var_context(2, 8, window=8)
tt = SkewPoly.from_series(c1, c1.base.var("t"))
rep2 = sc.filtration_identity_check([(tt, c1.gen("F"))], k_max=4)
print("  filtration identity for M = R(t, F):", rep2.ok)
