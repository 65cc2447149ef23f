"""Congruence-coefficient vectors and dart permutation matrices.

With an out-dart ordering fixed at every vertex, the connection along a dart
``e`` becomes a permutation matrix ``N_e``, and the congruence coefficients of
all out-darts at the source collect into one integer vector per dart.  The
vectors are those the validation of axiom 3 proves (:mod:`gkmgraph.axial`),
held with the graph: one exact division of packed integers per out-dart of
the first dart of each edge, and the reverse dart's vector read from it
through the identity ``N_e c(e) = c(ē)`` where that dart passes and
``w(ē) = −w(e)``.  The test suite checks every vector against a division
dart by dart.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .axial import AxiomViolationError
from .graph import GkmGraph, NotProportionalError

if TYPE_CHECKING:
    from .hermite import IntegerMatrix


def permutation(gkm: GkmGraph, e: str) -> tuple[int, ...]:
    """Permutation ``σ`` of positions with ``(N_e x)_j = x[σ(j)]``.

    Position ``j`` runs over the ordering at the target of ``e``; ``σ(j)`` is
    the position at the source of the out-dart carried onto position ``j``.
    """
    g = gkm.graph
    back = gkm.connection[g.reverse(e)]
    return tuple(g.dart_index(back[d]) for d in g.out_darts(g.target(e)))


def permutation_matrix(gkm: GkmGraph, e: str) -> IntegerMatrix:
    """The m×m permutation matrix realizing the connection along ``e``."""
    from .hermite import IntegerMatrix

    sig = permutation(gkm, e)
    m = len(sig)
    return IntegerMatrix.from_rows(
        [[1 if k == sig[j] else 0 for k in range(m)] for j in range(m)], m
    )


def invariant_function(gkm: GkmGraph) -> dict[str, tuple[int, ...]]:
    """The full dart-to-vector map of congruence coefficients.

    This map is unchanged under any extension of the weights, which is what
    makes it usable as the sole input (besides the connection) to the
    solution-lattice computation.  The vectors are the ones axiom 3 proves
    while ``gkm`` is validated (:attr:`~gkmgraph.graph.GkmGraph.validation`,
    computed once per graph).  A weight change that is not an integer
    multiple raises :class:`NotProportionalError`, naming the first such
    out-dart of the first such dart; a map that is missing or not a bijection
    raises :class:`~gkmgraph.axial.AxiomViolationError`.
    """
    report, vectors = gkm.validation
    if not report.passed(3):
        g = gkm.graph
        for e in g.darts:
            if e not in vectors:
                raise AxiomViolationError.from_report(report)
            if None in vectors[e]:
                d = g.out_darts(g.source(e))[vectors[e].index(None)]
                raise NotProportionalError(f"weight change of {d} across {e} is not a multiple of the base weight")
    return dict(vectors)
