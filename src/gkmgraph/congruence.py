"""Congruence-coefficient vectors and dart permutation matrices.

With an out-dart ordering fixed at every vertex, the connection along a dart
``e`` becomes a permutation matrix ``N_e``, and the congruence coefficients of
all out-darts at the source collect into one integer vector per dart.  The
coefficients are read off the packed weights of :mod:`gkmgraph.graph`, one
exact division of packed integers per out-dart; a single dart's vector packs
only the weights it compares.  Both orientations are computed
independently; the identity ``N_e c(e) = c(ē)`` is a cheap cross-check on the
connection and is exercised by the test suite.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .graph import GkmGraph, NotProportionalError, _packed

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
    solution-lattice computation.  The coefficient of ``d`` across ``e`` is
    the quotient of the weight change of ``d`` by ``w(e)``, taken as one
    exact division of packed weights (see :func:`_coefficients`).  A weight
    change that is not an integer multiple raises
    :class:`NotProportionalError`, naming the first such out-dart of the
    first such dart.
    """
    darts = gkm.graph.darts
    packed, big = _packed(gkm.axial, darts)
    return {e: _coefficients(gkm, e, packed, 2 * big) for e in darts}


def _dart_vector(gkm: GkmGraph, e: str) -> tuple[int, ...]:
    """``invariant_function(gkm)[e]`` alone, packing only the weights it compares."""
    g, nabla = gkm.graph, gkm.connection[e]
    out = g.out_darts(g.source(e))
    packed, big = _packed(gkm.axial, (e, *out, *(nabla[d] for d in out)))
    return _coefficients(gkm, e, packed, 2 * big)


def _coefficients(gkm: GkmGraph, e: str, packed: dict[str, int], bound: int) -> tuple[int, ...]:
    """The congruence vector of ``e``: one packed division per out-dart at its source.

    For out-dart ``d`` the quotient is ``divmod(packed[∇d] − packed[d],
    packed[e])``.  With ``M`` the largest entry packed, a weight change that
    is ``q·w(e)`` has ``|q| ≤ 2M`` and divides exactly; conversely an exact
    quotient with ``|q| ≤ bound = 2M`` leaves the remainder vector
    ``w(∇d) − w(d) − q·w(e)``, with entries below ``2M(M+1)``, packed to 0,
    so it is zero.  A zero ``w(e)`` packs to 0 and admits only a zero change.
    """
    g, nabla, base = gkm.graph, gkm.connection[e], packed[e]
    vector = []
    for d in g.out_darts(g.source(e)):
        change = packed[nabla[d]] - packed[d]
        q, r = divmod(change, base) if base else (0, change)
        if r or not -bound <= q <= bound:
            raise NotProportionalError(
                f"weight change of {d} across {e} is not a multiple of the base weight"
            )
        vector.append(q)
    return tuple(vector)
