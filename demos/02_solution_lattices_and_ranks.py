#!/usr/bin/env python3
"""Solution lattices, their ranks, and the two solvers.

Computes the lattice of compatible vertex labelings for the builtin families
and checks that the spanning-tree propagation solver and the all-at-once
linear system agree.  The rank bounds n <= rank <= m and the rank column for
the Johnson graphs J(n+2, 2) are the headline numbers.
"""

from gkmgraph import axial_group_basis, gen_grassmannian, gen_projective, gen_s6

print("two-vertex triple edge:")
basis = axial_group_basis(gen_s6())
print("  rank =", basis.rank)
for k, row in enumerate(basis.coordinate_matrix.data, start=1):
    print(f"  f{k}: p -> {row[:3]}, q -> {row[3:]}")
print("  (every solution satisfies x + y + z = 0 and negates across the edge)")
print()

print("complete graphs with difference weights (rank is pinned at m):")
for m in (1, 2, 3, 4):
    gkm = gen_projective(m)
    b = axial_group_basis(gkm)
    print(f"  m={m}: n={gkm.n}  rank={b.rank}")
print()

print("Johnson graphs J(n+2, 2) with Grassmannian weights:")
print("  n  vertices  valence  rank")
for n in range(1, 7):
    gkm = gen_grassmannian(n)
    fast = axial_group_basis(gkm, method="propagate")
    print(f"  {n}  {len(gkm.graph.vertices):8d}  {gkm.m:7d}  {fast.rank:4d}")
print("  (rank n+1 on a 2n-valent graph: the weights extend exactly once)")
print()

print("solver cross-check on J(4,2):")
gkm = gen_grassmannian(2)
a = axial_group_basis(gkm, method="propagate")
b = axial_group_basis(gkm, method="full")
print("  propagate == full:", a.coordinate_matrix == b.coordinate_matrix)
