"""Builtin GKM graph families.

Three generators cover the standard desk-scale fixtures: complete graphs with
difference weights (projective spaces), the two-vertex triple edge with
weights summing to zero (the six-sphere), and Johnson graphs ``J(n+2, 2)``
with the Grassmannian weights, each assembled from a private document builder.
"""

from __future__ import annotations

from itertools import combinations

from .graph import GkmGraph, reverse_name
from .io import EdgeRecord, GkmDocument, gkm_from_document


def gen_projective(m: int) -> GkmGraph:
    """Complete graph on ``m + 1`` vertices with difference weights.

    Dart ``i -> j`` is labeled ``a_j - a_i`` where ``a_1, ..., a_m`` is the
    standard basis and ``a_0 = 0``, giving an (m, m)-type labeling.  The
    connection is written in closed form, for the forward darts: across
    ``i -> j`` the dart to ``k`` goes to the dart from ``j`` to ``k``, whose
    weight differs by ``a_i - a_j``, and ``i -> j`` itself to ``j -> i``.
    """
    return gkm_from_document(_projective(m))


def _projective(m: int) -> GkmDocument:
    """The forward-dart document of :func:`gen_projective`."""
    if m < 1:
        raise ValueError("m must be at least 1")

    def unit(i: int) -> tuple[int, ...]:
        # a_0 is the zero vector by convention
        return tuple(1 if t == i else 0 for t in range(1, m + 1))

    def dart(i: int, j: int) -> str:
        return f"{i}-{j}" if i < j else f"{j}-{i}~"

    pairs = tuple(combinations(range(m + 1), 2))
    edges = tuple(
        EdgeRecord(f"{i}-{j}", str(i), str(j), tuple(a - b for a, b in zip(unit(j), unit(i))))
        for i, j in pairs
    )
    connection = {
        dart(i, j): {dart(i, k): dart(j, i if k == j else k) for k in range(m + 1) if k != i} for i, j in pairs
    }
    return GkmDocument(m, tuple(str(i) for i in range(m + 1)), edges, connection)


def gen_s6() -> GkmGraph:
    """Two vertices joined by three parallel edges, weights ``a, b, -a-b``.

    The weights are pinned a, b, -a-b because that choice reproduces the
    known congruence vector (-2, 1, 1) on every dart; the connection swaps
    the two other parallel edges.
    """
    return gkm_from_document(_s6())


def _s6() -> GkmDocument:
    """The forward-dart document of :func:`gen_s6`."""
    edges = (
        EdgeRecord("e1", "p", "q", (1, 0)),
        EdgeRecord("e2", "p", "q", (0, 1)),
        EdgeRecord("e3", "p", "q", (-1, -1)),
    )
    connection = {
        f"e{i}": {f"e{i}": f"e{i}~", f"e{j}": f"e{k}~", f"e{k}": f"e{j}~"}
        for i, j, k in ((1, 2, 3), (2, 1, 3), (3, 1, 2))
    }
    return GkmDocument(2, ("p", "q"), edges, connection)


def gen_grassmannian(n: int) -> GkmGraph:
    """Johnson graph ``J(n+2, 2)`` with the Grassmannian weights.

    Vertices are the 2-subsets of ``{1, ..., n+2}``; two subsets sharing an
    element are joined by an edge.  The dart replacing ``j`` by ``k`` (keeping
    the shared element) carries weight ``a_k - a_j`` with ``a_{n+2} = 0``.
    The ordering at ``{i, j}`` (i < j) lists the darts keeping ``i`` first,
    by new element ascending, then those keeping ``j``.  The connection along
    a dart is the transposition of the replaced and the new element (the
    reflection along the edge), acting on the neighbouring subsets.

    Built from index tables: ``label[i][j]`` names ``{i, j}`` once, and
    ``dart[v][u]``, the dart from ``v`` to its neighbour ``u``, is formatted
    once per dart.  Along ``{s, old} -> {s, new}`` the map sends the dart to
    ``{s, k}`` onto the one to ``{s, k}`` and the dart to ``{old, k}`` onto the
    one to ``{new, k}`` for every other ``k``, the dart itself onto its
    reverse, and the dart to ``{old, new}`` onto the one to ``{old, new}``.
    """
    return gkm_from_document(_grassmannian(n))


def _grassmannian(n: int) -> GkmDocument:
    """The forward-dart document of :func:`gen_grassmannian`."""
    if n < 1:
        raise ValueError("n must be at least 1")
    top = n + 2
    ground = range(1, top + 1)
    label = [[""] * (top + 1) for _ in range(top + 1)]
    for i, j in combinations(ground, 2):
        label[i][j] = label[j][i] = f"{i:02d}.{j:02d}"
    vertices = tuple(label[i][j] for i, j in combinations(ground, 2))
    # weight[old][new] is a_new - a_old, with a_{n+2} the zero vector
    span = range(top + 1)
    weight = [[tuple((t == new) - (t == old) for t in range(1, top)) for new in span] for old in span]
    dart: dict[str, dict[str, str]] = {v: {} for v in vertices}
    edges, moves = [], []
    for u, (i, j) in zip(vertices, combinations(ground, 2)):
        # the subsets after {i, j} sharing an element with it; each edge leaves the smaller name
        later = [(i, j, k) for k in range(j + 1, top + 1)]
        later += [(j, i, k) for k in range(i + 1, top + 1) if k != j]
        for s, x, y in later:
            w = label[s][y]
            src, dst, old, new = (u, w, x, y) if u < w else (w, u, y, x)
            eid = f"{src}|{dst}"
            dart[src][dst], dart[dst][src] = eid, reverse_name(eid)
            edges.append(EdgeRecord(eid, src, dst, weight[old][new]))
            moves.append((eid, src, dst, s, old, new))

    connection = {}
    for eid, src, dst, s, old, new in moves:
        here, there = dart[src], dart[dst]
        images = {eid: there[src], here[label[old][new]]: there[label[old][new]]}
        for k in ground:
            if k != s and k != old and k != new:
                images[here[label[s][k]]] = there[label[s][k]]
                images[here[label[old][k]]] = there[label[new][k]]
        connection[eid] = images

    orderings = {}
    for v, (i, j) in zip(vertices, combinations(ground, 2)):
        others = [k for k in ground if k != i and k != j]
        orderings[v] = tuple([dart[v][label[i][k]] for k in others] + [dart[v][label[j][k]] for k in others])

    return GkmDocument(n + 1, vertices, tuple(edges), connection, orderings)
