"""Congruence-coefficient vectors and dart permutations.

With an out-dart ordering fixed at every vertex, the connection along a dart
``e`` becomes a permutation matrix ``N_e``, given by its positions
(:func:`permutation`), and the congruence coefficients of all out-darts at the
source collect into one integer vector per dart.  The vectors are those the
validation of axiom 3 proves (:mod:`gkmgraph.axial`), held with the graph: one
exact division of packed integers per out-dart of the first dart of each edge,
and the reverse dart's vector read from it through the identity
``N_e c(e) = c(ē)`` where that dart passes and ``w(ē) = −w(e)``.  They are
handed out for a graph that passes the four axioms only, as every solver reads
them.  The test suite checks every vector against a division dart by dart.
"""

from __future__ import annotations

from .axial import validated
from .graph import GkmGraph


def permutation(gkm: GkmGraph, e: str) -> tuple[int, ...]:
    """Permutation ``σ`` of positions with ``(N_e x)_j = x[σ(j)]``.

    Position ``j`` runs over the ordering at the target of ``e``; ``σ(j)`` is
    the position at the source of the out-dart carried onto position ``j``.
    """
    g = gkm.graph
    back = gkm.connection[g.reverse(e)]
    return tuple(g.positions[back[d]] for d in g.orderings[g.targets[e]])


def invariant_function(gkm: GkmGraph) -> dict[str, tuple[int, ...]]:
    """The full dart-to-vector map of congruence coefficients.

    This map is unchanged under any extension of the weights, which is what
    makes it usable as the sole input (besides the connection) to the
    solution-lattice computation.  The vectors are the ones axiom 3 proves
    while ``gkm`` is validated (:attr:`~gkmgraph.graph.GkmGraph.validation`,
    computed when it was built); a graph failing an axiom raises
    :class:`~gkmgraph.axial.AxiomViolationError`, naming the first failure.
    """
    return dict(validated(gkm).validation.coefficients)
