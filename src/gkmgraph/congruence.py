"""Congruence-coefficient vectors and dart permutation matrices.

With an out-dart ordering fixed at every vertex, the connection along a dart
``e`` becomes a permutation matrix ``N_e``, and the congruence coefficients of
all out-darts at the source collect into one integer vector per dart.  Both
orientations are computed independently; the identity ``N_e c(e) = c(ē)``
is a cheap cross-check on the connection and is exercised by the test suite.
"""

from __future__ import annotations

from .axial import AxialError, GkmGraph, NotProportionalError, congruence_coefficient
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


def congruence_vector(gkm: GkmGraph, e: str) -> tuple[int, ...]:
    """Congruence coefficients of all out-darts at the source of ``e``, in order."""
    p = gkm.graph.source(e)
    return tuple(congruence_coefficient(gkm, e, d) for d in gkm.graph.out_darts(p))


def _packed(gkm: GkmGraph) -> dict[str, int]:
    """Each dart's weight ``w`` as the single integer ``Σ_k w_k·2^(s·k)``.

    With ``M`` the largest absolute entry, a quotient read at a pivot has
    ``|q| ≤ 2M``, so ``w(a) − w(b) − q·w(e)`` has entries below
    ``2M(M+1) < 2^s``; such a vector packs to 0 only when it is zero, which
    turns each congruence check into one subtraction and one product.
    """
    weights = gkm.axial.weights
    for d in gkm.graph.darts:
        if len(weights[d]) != gkm.n:
            raise AxialError(f"weight of dart {d} has length {len(weights[d])}, expected {gkm.n}")
    s = 2 * max((abs(x) for d in gkm.graph.darts for x in weights[d]), default=0).bit_length() + 2
    packed = {}
    for d in gkm.graph.darts:
        acc = 0
        for x in reversed(weights[d]):
            acc = (acc << s) + x
        packed[d] = acc
    return packed


def invariant_function(gkm: GkmGraph) -> dict[str, tuple[int, ...]]:
    """The full dart-to-vector map of congruence coefficients.

    This map is unchanged under any extension of the weights, which is what
    makes it usable as the sole input (besides the connection) to the
    solution-lattice computation.  Each vector equals ``congruence_vector``
    of its dart, and a dart without one raises the same error; quotients are
    read at the first nonzero coordinate of the dart's weight and checked on
    packed weights.
    """
    g, w, packed = gkm.graph, gkm.axial.weights, _packed(gkm)
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
