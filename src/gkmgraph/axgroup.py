"""The lattice of compatible vertex labelings and its canonical basis.

An element assigns to every vertex an integer vector indexed by its out-darts,
subject to one linear relation per dart: transporting the vector along ``e``
with the permutation matrix and correcting by the congruence vector of ``ē``
must reproduce the vector at the far end.  The solutions form a lattice whose
rank is squeezed between the weight rank ``n`` and the valence ``m``, and the
value at a single vertex already determines the whole element.

Two independent solvers are provided and must agree: ``propagate`` moves a
base-vertex kernel along a spanning tree in O(m) steps and refines it on every
remaining edge, ``full_system`` solves for all vertex vectors at once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Mapping, Sequence

from .axial import GkmGraph
from .congruence import congruence_vector, invariant_function, permutation
from .graph import OrientedGraph
from .intlinalg import IntegerMatrix, integer_kernel_basis, lattice_basis


@dataclass(frozen=True)
class AxialElement:
    """A vertex-indexed family of integer vectors in out-dart order."""

    values: Mapping[str, tuple[int, ...]]

    def __getitem__(self, vertex: str) -> tuple[int, ...]:
        return self.values[vertex]

    def component(self, graph: OrientedGraph, dart: str) -> int:
        """The coordinate of this element at a dart (at the dart's source)."""
        return self.values[graph.source(dart)][graph.dart_index(dart)]

    def coordinates(self, vertex_order: Sequence[str]) -> tuple[int, ...]:
        """All values concatenated in the given vertex order."""
        out: list[int] = []
        for v in vertex_order:
            out.extend(self.values[v])
        return tuple(out)

    @classmethod
    def from_coordinates(cls, graph: OrientedGraph, coord: Sequence[int]) -> "AxialElement":
        """The element whose ``coordinates(graph.vertices)`` are ``coord``."""
        m = graph.valence
        values = {
            v: tuple(coord[i * m : (i + 1) * m]) for i, v in enumerate(graph.vertices)
        }
        return cls(values)


@dataclass(frozen=True)
class AxialGroupBasis:
    """Canonical basis of the solution lattice.

    ``coordinate_matrix`` is the Hermite normal form of the stacked
    coordinates over all vertices, so equal lattices compare equal;
    ``canonical_matrix`` is the HNF of the restrictions to the base vertex.
    """

    elements: tuple[AxialElement, ...]
    rank: int
    base_vertex: str
    canonical_matrix: IntegerMatrix
    coordinate_matrix: IntegerMatrix


def _step(gkm: GkmGraph, e: str, cbar: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """Transport across ``e`` in O(m): ``y_j = x[σ(j)] + x[p_e]·c(ē)_j``, with ``cbar = c(ē)``."""
    sig, pe = permutation(gkm, e), gkm.graph.dart_index(e)
    pick = itemgetter(*sig) if len(sig) > 1 else lambda x: (x[sig[0]],)

    def step(x: Sequence[int]) -> tuple[int, ...]:
        fe = x[pe]
        return tuple([x[s] + fe * c for s, c in zip(sig, cbar)]) if fe else pick(x)

    return step


def propagate(gkm: GkmGraph, f_at_source: Sequence[int], e: str) -> tuple[int, ...]:
    """Transport a vector across dart ``e``: the unique far-end value.

    Implements ``f(q) = N_e f(p) + f(p)_e * c(ē)`` for ``e`` from ``p`` to
    ``q``; for members of the solution lattice this is the value forced by the
    defining relation at ``e``.
    """
    return _step(gkm, e, congruence_vector(gkm, gkm.graph.reverse(e)))(f_at_source)


def transport_matrix(gkm: GkmGraph, e: str) -> IntegerMatrix:
    """Matrix ``T`` with ``propagate(gkm, x, e) == T @ x`` for all ``x``."""
    columns = [propagate(gkm, unit, e) for unit in IntegerMatrix.identity(gkm.m).data]
    return IntegerMatrix.from_rows(columns, gkm.m).transpose()


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


def _solve_by_propagation(
    gkm: GkmGraph, inv: Mapping[str, tuple[int, ...]], base: str
) -> list[tuple[int, ...]]:
    """Refine the base-vertex kernel over every non-tree edge in turn.

    ``kernel`` spans the saturated lattice of base vectors meeting every
    relation checked so far; a failing edge's block ``D`` has a saturated
    integer kernel, whose combinations of the kernel rows span the new one.
    """
    g = gkm.graph
    tree, used = _spanning_tree(g, base)
    checks = [e for e in g.edge_representatives() if e not in used]
    steps = {e: _step(gkm, e, inv[g.reverse(e)]) for e in tree + checks}

    def spread(kernel: list[tuple[int, ...]]) -> dict[str, list[tuple[int, ...]]]:
        values = {base: kernel}
        for e in tree:
            values[g.target(e)] = list(map(steps[e], values[g.source(e)]))
        return values

    kernel = list(IntegerMatrix.identity(g.valence).data)
    values = spread(kernel)
    for e in checks:
        moved, there = list(map(steps[e], values[g.source(e)])), values[g.target(e)]
        if moved == there:
            continue
        block = [tuple(a - b for a, b in zip(x, y)) for x, y in zip(moved, there)]
        combos = integer_kernel_basis(IntegerMatrix.from_rows(block, g.valence).transpose())
        cols = list(zip(*kernel))
        kernel = [tuple(sum(c * x for c, x in zip(combo, col)) for col in cols) for combo in combos]
        values = spread(kernel)
    return [tuple(x for v in g.vertices for x in values[v][i]) for i in range(len(kernel))]


def _solve_full_system(
    gkm: GkmGraph, inv: Mapping[str, tuple[int, ...]]
) -> list[tuple[int, ...]]:
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
    mat = IntegerMatrix.from_rows(rows, width) if rows else IntegerMatrix.zeros(0, width)
    return integer_kernel_basis(mat)


def axial_group_basis(
    gkm: GkmGraph,
    method: str = "propagate",
    base_vertex: str | None = None,
) -> AxialGroupBasis:
    """Solve the defining relations and return the canonical lattice basis.

    ``method`` is ``"propagate"`` or ``"full_system"`` (alias ``"full"``);
    both canonicalize to the same basis.  ``base_vertex`` defaults to the
    smallest vertex id and only affects the propagation start and the
    restriction used for ``canonical_matrix``, never the lattice itself.
    """
    g = gkm.graph
    base = g.vertices[0] if base_vertex is None else base_vertex
    if base not in g.orderings:
        raise ValueError(f"unknown base vertex {base!r}")
    inv = invariant_function(gkm)
    if method == "propagate":
        coords = _solve_by_propagation(gkm, inv, base)
    elif method in ("full_system", "full"):
        coords = _solve_full_system(gkm, inv)
    else:
        raise ValueError(f"unknown method {method!r}")
    width = g.valence * len(g.vertices)
    coords = lattice_basis(coords, width)
    elements = tuple(AxialElement.from_coordinates(g, c) for c in coords)
    restricted = lattice_basis([el.values[base] for el in elements], g.valence)
    return AxialGroupBasis(
        elements=elements,
        rank=len(coords),
        base_vertex=base,
        canonical_matrix=IntegerMatrix.from_rows(restricted, g.valence),
        coordinate_matrix=IntegerMatrix.from_rows(coords, width),
    )


def canonical_elements(gkm: GkmGraph) -> tuple[AxialElement, ...]:
    """The n solutions read off the weights themselves.

    The i-th element collects, at every vertex, the i-th coordinates of the
    out-dart weights.  Summing them back against the lattice basis vectors of
    ``Z^n`` reproduces the axial function, which is why these elements always
    satisfy the defining relations and restrict to rank ``n`` at any vertex.
    """
    g = gkm.graph
    out = []
    for i in range(gkm.axial.torus_rank):
        values = {
            p: tuple(gkm.axial.weights[d][i] for d in g.out_darts(p))
            for p in g.vertices
        }
        out.append(AxialElement(values))
    return tuple(out)
