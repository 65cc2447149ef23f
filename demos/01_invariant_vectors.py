#!/usr/bin/env python3
"""Congruence vectors on the two-vertex triple edge.

Builds the (3,2)-type fixture with weights a, b, -a-b, prints the connection,
the permutation σ of a dart (its matrix N_e has (N_e x)_j = x[σ(j)]), the
congruence vector of every dart, and shows the transport identity
N_e c(e) = c(ē).
"""

from gkmgraph import (
    emit_dot,
    gen_s6,
    invariant_function,
    permutation,
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

sigma = permutation(gkm, "e1")
print("permutation of e1 (orderings e1,e2,e3 / e1~,e2~,e3~): (N_e1 x)_j = x[σ(j)] with")
print("  σ =", sigma)
print()

inv = invariant_function(gkm)
print("congruence vectors:")
for e in gkm.graph.darts:
    print(f"  c({e}) = {inv[e]}")
print()

print("transport identity on e1:")
print("  N_e1 c(e1) =", tuple(inv["e1"][s] for s in sigma), " c(e1~) =", inv["e1~"])
print()

print("Graphviz export with congruence labels:")
print(emit_dot(gkm, annotate="congruence"))
