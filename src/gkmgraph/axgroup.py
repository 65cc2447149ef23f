"""The lattice of compatible vertex labelings and its canonical basis.

An element assigns to every vertex an integer vector indexed by its out-darts,
subject to one linear relation per dart: transporting the vector along ``e``
with the permutation matrix and correcting by the congruence vector of ``ē``
must reproduce the vector at the far end.  The solutions form a lattice whose
rank is squeezed between the weight rank ``n`` and the valence ``m``, and the
value at a single vertex already determines the whole element.

Both solvers run on a GKM graph only, refusing any other input with
:class:`~gkmgraph.axial.AxiomViolationError`, and read the congruence vectors
its validation proved.  They are independent and agree bit for bit.
``propagate`` carries a kernel at the first vertex along a spanning tree in
O(m) steps per row, checks it on the remaining edges and refines it on each
edge it fails, stopping once it is down to rank ``n``, the least rank
possible; ``full`` solves for all vertex vectors at once and checks every
edge.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from operator import itemgetter
from typing import Callable, Mapping, NamedTuple, Sequence

from .axial import validated
from .congruence import permutation
from .graph import GkmGraph, OrientedGraph
from .hermite import IntegerMatrix, integer_kernel_basis, lattice_basis


class AxialGroupBasis(NamedTuple):
    """Canonical basis of the solution lattice.

    Row ``k`` of ``coordinate_matrix`` is element ``k`` over all vertices:
    entries ``i·m`` to ``(i+1)·m`` are its integer vector at
    ``graph.vertices[i]``, in that vertex's out-dart order.  The matrix is
    the Hermite normal form of these coordinates, so equal lattices compare
    equal, and its first ``m`` columns are the HNF of the values at the first
    vertex.
    """

    rank: int
    coordinate_matrix: IntegerMatrix


def _step(gkm: GkmGraph, e: str, cbar: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """Transport across ``e`` in O(m): ``y_j = x[σ(j)] + x[p_e]·c(ē)_j``, with ``cbar = c(ē)``.

    Axiom 3 makes the connection take ``e`` to ``ē`` and ``ē`` to ``e``, so
    the ē row of the relation at ``e`` reads ``(1 + c(ē)_ē)·f(q)_ē = f(p)_e``;
    axiom 1 makes ``c(ē)_ē = −2``, so ``f(q)_ē = −f(p)_e``, and the other
    rows follow.
    """
    g = gkm.graph
    sig, pe = permutation(gkm, e), g.dart_index(e)
    pick = itemgetter(*sig) if len(sig) > 1 else lambda x: (x[sig[0]],)

    def step(x: Sequence[int]) -> tuple[int, ...]:
        fe = x[pe]
        return tuple([x[s] + fe * c for s, c in zip(sig, cbar)]) if fe else pick(x)

    return step


def propagate(gkm: GkmGraph, f_at_source: Sequence[int], e: str) -> tuple[int, ...]:
    """Transport a vector across dart ``e``: the unique far-end value.

    Implements ``f(q) = N_e f(p) + f(p)_e·c(ē)`` for ``e`` from ``p`` to
    ``q`` (see :func:`_step`), with ``c(ē)`` the congruence vector of ``ē``
    that validating ``gkm`` proved; for members of the solution lattice this
    is the value forced by the defining relation at ``e``.
    """
    return _step(gkm, e, validated(gkm).validation.coefficients[gkm.graph.reverse(e)])(f_at_source)


def _spanning_tree(graph: OrientedGraph, base: str) -> tuple[list[str], set[str]]:
    """Breadth-first tree darts from ``base``; ties broken by dart id."""
    tree: list[str] = []
    seen = {base}
    queue = deque([base])
    while queue:
        p = queue.popleft()
        for e in sorted(graph.out_darts(p)):
            q = graph.target(e)
            if q in seen:
                continue
            seen.add(q)
            tree.append(e)
            queue.append(q)
    used = set(tree) | {graph.reverse(e) for e in tree}
    return tree, used


def _combine(terms, width: int) -> tuple[int, ...]:
    """``Σ c·row`` over the ``(c, row)`` pairs of ``terms``, skipping zero coefficients."""
    out = [0] * width
    for c, row in terms:
        if c:
            out = [a + c * b for a, b in zip(out, row)]
    return tuple(out)


def _solve_by_propagation(gkm: GkmGraph, inv: Mapping[str, tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Refine the kernel at the first vertex over the non-tree edges, stopping at rank ``n``.

    ``kernel`` spans the saturated lattice of vectors at the first vertex
    meeting every relation checked so far, and ``at(v)`` is it carried to
    ``v`` along the tree rooted there, filled down from the nearest vertex
    holding a value and held until the kernel changes.  A non-tree edge ``e``
    from ``p`` to ``q`` holds when ``step_e(at(p)) == at(q)``; otherwise the
    difference rows are ``K·D_e``, whose saturated integer kernel combines
    the kernel rows into the new one.

    The solution lattice lies in ``kernel``, and both are saturated.  The
    ``n`` canonical elements (the weight coordinates) are solutions whose
    restrictions to the first vertex are independent, so a kernel of rank
    ``n`` already is the lattice and the remaining edges are not checked.

    The rows returned are the canonical (HNF) basis of the lattice's
    coordinates over all vertices.  An element is determined by its value
    at one vertex, so every pivot of that HNF lies in the first vertex's
    block: the HNF of the kernel, expanded, is that basis (a kernel already
    in HNF keeps the rows already carried).
    """
    g, m = gkm.graph, gkm.graph.valence
    base = g.vertices[0]
    tree, used = _spanning_tree(g, base)
    up = {g.target(e): (g.source(e), _step(gkm, e, inv[g.reverse(e)])) for e in tree}
    kernel = list(IntegerMatrix.identity(m).data)
    values = {base: kernel}

    def at(v: str) -> list[tuple[int, ...]]:
        path = []
        while v not in values:
            path.append(v)
            v = up[v][0]
        rows = values[v]
        for w in reversed(path):
            rows = values[w] = list(map(up[w][1], rows))
        return rows

    for e in g.edge_representatives():
        if len(kernel) == gkm.n:
            break
        if e in used:
            continue
        moved, there = list(map(_step(gkm, e, inv[g.reverse(e)]), at(g.source(e)))), at(g.target(e))
        if moved == there:
            continue
        block = [tuple(a - b for a, b in zip(x, y)) for x, y in zip(moved, there)]
        combos = integer_kernel_basis(IntegerMatrix.from_rows(block, m).transpose())
        kernel = [_combine(zip(c, kernel), m) for c in combos]
        values = {base: kernel}
    canonical = lattice_basis(kernel, m)
    if canonical != kernel:
        values = {base: canonical}
    return [tuple(chain.from_iterable(rows)) for rows in zip(*map(at, g.vertices))]


def _solve_full_system(
    gkm: GkmGraph, inv: Mapping[str, tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """The canonical basis of the coordinates over all vertices, as the kernel of every edge's relations."""
    g = gkm.graph
    m = g.valence
    offset = {v: i * m for i, v in enumerate(g.vertices)}
    width = m * len(g.vertices)
    rows = []
    for e in g.edge_representatives():
        p, q = g.source(e), g.target(e)
        eb = g.reverse(e)
        sig = permutation(gkm, e)
        cbar = inv[eb]
        pos_eb = g.dart_index(eb)
        for j in range(m):
            row = [0] * width
            row[offset[p] + sig[j]] += 1
            row[offset[q] + j] -= 1
            row[offset[q] + pos_eb] -= cbar[j]
            rows.append(row)
    return integer_kernel_basis(IntegerMatrix.from_rows(rows, width))


def axial_group_basis(gkm: GkmGraph, method: str = "propagate") -> AxialGroupBasis:
    """Solve the defining relations and return the canonical lattice basis.

    ``method`` is ``"propagate"`` or ``"full"``; both canonicalize to the
    same basis.  Input that fails an axiom raises
    :class:`~gkmgraph.axial.AxiomViolationError`.
    """
    inv = validated(gkm).validation.coefficients
    if method == "propagate":
        coords = _solve_by_propagation(gkm, inv)
    elif method == "full":
        coords = _solve_full_system(gkm, inv)
    else:
        raise ValueError(f"unknown method {method!r}")
    width = gkm.graph.valence * len(gkm.graph.vertices)
    return AxialGroupBasis(rank=len(coords), coordinate_matrix=IntegerMatrix(tuple(coords), width))
