#!/usr/bin/env python3
"""Congruence vectors on the two-vertex triple edge.

Builds the (3,2)-type fixture with weights a, b, -a-b, prints the connection,
the permutation matrix of a dart, the congruence vector of every dart, and
shows the transport identity N_e c(e) = c(ē).
"""

from gkmgraph import (
    emit_dot,
    gen_s6,
    invariant_function,
    permutation_matrix,
    validate_gkm,
)

gkm = gen_s6()
print("valence m =", gkm.m, " weight rank n =", gkm.n)
print()
print("axiom report:")
print(validate_gkm(gkm).summary())
print()

print("connection along e1 (the other parallel pair swaps):")
for src, img in gkm.connection["e1"].items():
    print(f"  {src} -> {img}")
print()

print("permutation matrix of e1 (orderings e1,e2,e3 / e1~,e2~,e3~):")
for row in permutation_matrix(gkm, "e1").data:
    print("  ", row)
print()

inv = invariant_function(gkm)
print("congruence vectors:")
for e in gkm.graph.darts:
    print(f"  c({e}) = {inv[e]}")
print()

print("transport identity on e1:")
ne = permutation_matrix(gkm, "e1")
print("  N_e1 c(e1) =", ne.mul_vector(inv["e1"]), " c(e1~) =", inv["e1~"])
print()

print("Graphviz export with congruence labels:")
print(emit_dot(gkm, annotate="congruence"))
