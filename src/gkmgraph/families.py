"""Builtin GKM graph families.

Three generators cover the standard desk-scale fixtures: complete graphs with
difference weights (projective spaces), the two-vertex triple edge with
weights summing to zero (the six-sphere), and Johnson graphs ``J(n+2, 2)``
with the Grassmannian weights.  Each assembles a document of forward darts.
"""

from __future__ import annotations

from itertools import combinations

from .axial import GkmGraph
from .graph import reverse_name
from .io import ConnectionEntry, EdgeRecord, GkmDocument, gkm_from_document


def gen_projective(m: int) -> GkmGraph:
    """Complete graph on ``m + 1`` vertices with difference weights.

    Dart ``i -> j`` is labeled ``a_j - a_i`` where ``a_1, ..., a_m`` is the
    standard basis and ``a_0 = 0``, giving an (m, m)-type labeling.  The
    connection is inferred from the weights.
    """
    if m < 1:
        raise ValueError("m must be at least 1")

    def unit(i: int) -> tuple[int, ...]:
        # a_0 is the zero vector by convention
        return tuple(1 if t == i else 0 for t in range(1, m + 1))

    edges = tuple(
        EdgeRecord(f"{i}-{j}", str(i), str(j), tuple(a - b for a, b in zip(unit(j), unit(i))))
        for i, j in combinations(range(m + 1), 2)
    )
    return gkm_from_document(GkmDocument(m, tuple(str(i) for i in range(m + 1)), edges))


def gen_s6() -> GkmGraph:
    """Two vertices joined by three parallel edges, weights ``a, b, -a-b``.

    The weights are pinned a, b, -a-b because that choice reproduces the
    known congruence vector (-2, 1, 1) on every dart; the connection swaps
    the two other parallel edges.
    """
    edges = (
        EdgeRecord("e1", "p", "q", (1, 0)),
        EdgeRecord("e2", "p", "q", (0, 1)),
        EdgeRecord("e3", "p", "q", (-1, -1)),
    )
    connection = tuple(
        ConnectionEntry(f"e{i}", {f"e{i}": f"e{i}~", f"e{j}": f"e{k}~", f"e{k}": f"e{j}~"})
        for i, j, k in ((1, 2, 3), (2, 1, 3), (3, 1, 2))
    )
    return gkm_from_document(GkmDocument(2, ("p", "q"), edges, connection))


def gen_grassmannian(n: int) -> GkmGraph:
    """Johnson graph ``J(n+2, 2)`` with the Grassmannian weights.

    Vertices are the 2-subsets of ``{1, ..., n+2}``; two subsets sharing an
    element are joined by an edge.  The dart replacing ``j`` by ``k`` (keeping
    the shared element) carries weight ``a_k - a_j`` with ``a_{n+2} = 0``.
    The ordering at ``{i, j}`` (i < j) lists the darts keeping ``i`` first,
    by new element ascending, then those keeping ``j``; the connection along
    a dart swaps the replaced and the new element inside each target subset.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    ground = range(1, n + 3)
    name = {frozenset((i, j)): f"{i:02d}.{j:02d}" for i, j in combinations(ground, 2)}
    pairs = list(name)
    neighbours = {u: [t for t in pairs if t != u and t & u] for u in pairs}

    def unit(i: int) -> tuple[int, ...]:
        # a_{n+2} is the zero vector by convention
        return tuple(1 if t == i else 0 for t in range(1, n + 2))

    def dart_id(u: frozenset[int], w: frozenset[int]) -> str:
        a, b = name[u], name[w]
        return f"{a}|{b}" if a < b else reverse_name(f"{b}|{a}")

    edges = []
    connection = []
    for u, w in combinations(pairs, 2):
        if not (u & w):
            continue
        src, dst = (u, w) if name[u] < name[w] else (w, u)
        a, b = name[src], name[dst]
        eid = f"{a}|{b}"
        (old,) = src - dst
        (new,) = dst - src
        edges.append(EdgeRecord(eid, a, b, tuple(x - y for x, y in zip(unit(new), unit(old)))))
        swap = {old: new, new: old}
        # t == dst lands on swap(dst) == src, the reversed dart
        images = {dart_id(src, t): dart_id(dst, frozenset(swap.get(x, x) for x in t)) for t in neighbours[src]}
        connection.append(ConnectionEntry(eid, images))

    orderings = {}
    for u in pairs:
        i, j = sorted(u)
        others = sorted(set(ground) - u)
        order = [dart_id(u, frozenset({i, k})) for k in others]
        order += [dart_id(u, frozenset({j, k})) for k in others]
        orderings[name[u]] = tuple(order)

    doc = GkmDocument(n + 1, tuple(name.values()), tuple(edges), tuple(connection), orderings)
    return gkm_from_document(doc)
