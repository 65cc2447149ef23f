#!/usr/bin/env python3
"""Forget a weight direction, then recover a maximal extension.

Starts from the complete graph on four vertices with rank-3 weights, projects
them onto rank 2 by a generic surjection, and rebuilds a rank-3 extension
from the solution lattice.  The congruence vectors and the lattice itself are
untouched by either step, and the rebuilt labeling projects back onto the
rank-2 one.
"""

from gkmgraph import (
    IntegerMatrix,
    axial_group_basis,
    extend_axial,
    gen_projective,
    invariant_function,
    project_axial,
    verify_extension,
)
from gkmgraph.extension import RankExceededError

original = gen_projective(3)
print("original: n =", original.n, " rank =", axial_group_basis(original).rank)

pi = IntegerMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
projected = project_axial(original, pi)
print("projected by [[1,0,1],[0,1,1]]: n =", projected.n)
print("  lattice rank is still", axial_group_basis(projected).rank)
print("  congruence data unchanged:", invariant_function(projected) == invariant_function(original))
print()

extended = extend_axial(projected, 3)
print("extended back to rank 3:")
for d in sorted(projected.graph.edge_representatives()):
    print(f"  {d}: {projected.weight(d)} -> {extended.weight(d)}")
print()

check = verify_extension(projected, extended)
print("extension verified:", check.ok)
print("recovering projection:")
for row in check.projection.data:
    print("  ", row)
print()

print("one more direction is impossible:")
try:
    extend_axial(projected, 4)
except RankExceededError as exc:
    print("  ", exc)
