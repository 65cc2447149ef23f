"""Congruence-coefficient vectors and dart permutation matrices.

With an out-dart ordering fixed at every vertex, the connection along a dart
``e`` becomes a permutation matrix ``N_e``, and the congruence coefficients of
all out-darts at the source collect into one integer vector per dart.  The
coefficients are read off the packed weights of :mod:`gkmgraph.axial`, one
quotient and one packed check per out-dart.  Both orientations are computed
independently; the identity ``N_e c(e) = c(ē)`` is a cheap cross-check on the
connection and is exercised by the test suite.
"""

from __future__ import annotations

from .axial import GkmGraph, NotProportionalError, _packed
from .intlinalg import IntegerMatrix


def permutation(gkm: GkmGraph, e: str) -> tuple[int, ...]:
    """Permutation ``σ`` of positions with ``(N_e x)_j = x[σ(j)]``.

    Position ``j`` runs over the ordering at the target of ``e``; ``σ(j)`` is
    the position at the source of the out-dart carried onto position ``j``.
    """
    g = gkm.graph
    back = gkm.connection.maps[g.reverse(e)]
    return tuple(g.dart_index(back[d]) for d in g.out_darts(g.target(e)))


def permutation_matrix(gkm: GkmGraph, e: str) -> IntegerMatrix:
    """The m×m permutation matrix realizing the connection along ``e``."""
    sig = permutation(gkm, e)
    m = len(sig)
    return IntegerMatrix.from_rows(
        [[1 if k == sig[j] else 0 for k in range(m)] for j in range(m)], m
    )


def invariant_function(gkm: GkmGraph) -> dict[str, tuple[int, ...]]:
    """The full dart-to-vector map of congruence coefficients.

    This map is unchanged under any extension of the weights, which is what
    makes it usable as the sole input (besides the connection) to the
    solution-lattice computation.  The coefficient of ``d`` across ``e`` is
    the quotient of the weight change of ``d`` by ``w(e)``, read at the first
    nonzero coordinate of ``w(e)`` (0 when ``w(e)`` is zero) and checked on
    the packed weights.  A weight change that is not an integer multiple
    raises :class:`NotProportionalError`, naming the first such out-dart of
    the first such dart.
    """
    g, w, packed = gkm.graph, gkm.axial.weights, _packed(gkm.graph, gkm.axial)
    out = {}
    for e in g.darts:
        nabla, base = gkm.connection.maps[e], w[e]
        pivot = next((i for i, x in enumerate(base) if x), None)
        vector = []
        for d in g.out_darts(g.source(e)):
            image = nabla[d]
            q, r = (0, 0) if pivot is None else divmod(w[image][pivot] - w[d][pivot], base[pivot])
            if r or packed[image] - packed[d] != q * packed[e]:
                raise NotProportionalError(
                    f"weight change of {d} across {e} is not a multiple of the base weight"
                )
            vector.append(q)
        out[e] = tuple(vector)
    return out
