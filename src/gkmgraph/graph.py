"""Connected m-valent multigraphs carried by darts (oriented half-edges).

Darts, not vertex pairs, are the primitive: parallel edges are allowed, so a
pair of endpoints does not determine an edge.  Each undirected edge ``X`` is
the dart pair ``X`` / ``X~``, so the reverse ``ē`` of a dart, a fixed-point-free
involution swapping endpoints, is read off its name.  Every vertex fixes an
order on its outgoing darts (lexicographic by dart id unless pinned
explicitly).  A graph is a record read through its fields; it has no
accessor that restates one.

Every command loads this module.  It also holds :class:`GkmError`, the base
of every error the package raises, the labeled graph (:class:`GkmGraph`: a
graph, its weights, its connection and their validation) and :func:`_packed`,
the packing of weights every congruence test reads.
"""

from __future__ import annotations

import sys
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

if TYPE_CHECKING:
    from .axial import Validation


class GkmError(Exception):
    """Base class for every error raised by this package."""


class GraphError(GkmError):
    """Malformed graph description."""


REVERSE_SUFFIX = "~"


def reverse_name(dart_id: str) -> str:
    """Reverse-dart name under the edge-id convention (``X`` pairs with ``X~``)."""
    if dart_id.endswith(REVERSE_SUFFIX):
        return dart_id[: -len(REVERSE_SUFFIX)]
    return dart_id + REVERSE_SUFFIX


class OrientedGraph(NamedTuple):
    """An m-valent connected multigraph with oriented darts.

    The reverse of dart ``X`` is ``X~`` and that of ``X~`` is ``X``.  Build
    it with :func:`build_graph`, which verifies all structural invariants and
    derives the last three fields: ``darts``, every dart sorted;
    ``positions``, each dart's place in the ordering at its source; and
    ``tree``, the breadth-first spanning tree from ``vertices[0]`` that
    proves the graph connected, mapping each other vertex to the dart that
    first reaches it (out-darts taken by id, whatever the orderings).

    Read it through its fields: ``sources[d]`` and ``targets[d]`` are the
    ends of dart ``d``, ``orderings[v]`` the out-darts at ``v`` in order and
    ``positions[d]`` the place of ``d`` in the ordering at its source.  Its
    two methods compute what no field holds: :meth:`reverse` interns the
    reverse dart's id and :meth:`edge_representatives` picks one dart per edge.
    """

    vertices: tuple[str, ...]
    sources: Mapping[str, str]
    targets: Mapping[str, str]
    orderings: Mapping[str, tuple[str, ...]]
    valence: int
    darts: tuple[str, ...]
    positions: Mapping[str, int]
    tree: Mapping[str, str]

    def reverse(self, dart: str) -> str:
        """The reverse dart's id, as the one string :func:`build_graph` keeps for it."""
        return sys.intern(reverse_name(dart))

    def edge_representatives(self) -> tuple[str, ...]:
        """One dart per undirected edge: the forward dart ``X`` of the pair, sorted."""
        return tuple(d for d in self.darts if not d.endswith(REVERSE_SUFFIX))


def build_graph(
    vertices: Iterable[str],
    edges: Iterable[tuple[str, str, str]],
    orderings: Mapping[str, Sequence[str]] | None = None,
) -> OrientedGraph:
    """Build and fully validate a graph from undirected edges ``(edge_id, source, target)``.

    Each edge expands to the dart pair ``edge_id`` (forward) and ``edge_id~``
    (reverse), whose id is interned, so that it is one string wherever the
    graph, its weights and its connection hold it.  This is the one check of
    ids, references and shape, for documents, families and library graphs
    alike: a duplicate id, ``~`` in an edge id, an edge or ordering at an
    unknown vertex, a loop, an irregular or a disconnected graph raises
    :class:`GraphError`.
    """
    verts = tuple(sorted(vertices))
    if not verts:
        raise GraphError("a graph needs at least one vertex")
    vset = set(verts)
    if len(vset) != len(verts):
        raise GraphError("duplicate vertex ids")
    sources: dict[str, str] = {}
    targets: dict[str, str] = {}
    for eid, s, t in edges:
        if REVERSE_SUFFIX in eid:
            raise GraphError(f"edge id {eid!r} must not contain {REVERSE_SUFFIX!r}")
        if eid in sources:
            raise GraphError(f"duplicate edge id {eid!r}")
        rid = sys.intern(reverse_name(eid))
        sources[eid], targets[eid] = s, t
        sources[rid], targets[rid] = t, s
    for d, s in sources.items():
        t = targets[d]
        if s not in vset or t not in vset:
            raise GraphError(f"dart {d} references an unknown vertex")
        if s == t:
            raise GraphError(f"dart {d} is a loop at vertex {s}")

    darts = tuple(sorted(sources))
    out: dict[str, list[str]] = {v: [] for v in verts}
    for d in darts:
        out[sources[d]].append(d)
    valences = {len(ds) for ds in out.values()}
    if len(valences) != 1:
        counts = {v: len(ds) for v, ds in out.items()}
        bad = min(v for v in counts if counts[v] != max(valences))
        raise GraphError(f"vertex {bad} has out-valence {counts[bad]}, expected a regular graph")
    valence = valences.pop()
    if valence == 0:
        raise GraphError("vertices have no outgoing darts")

    root = verts[0]
    tree: dict[str, str] = {}
    reached = [root]
    for p in reached:
        for d in out[p]:
            q = targets[d]
            if q not in tree and q != root:
                tree[q] = d
                reached.append(q)
    if len(reached) != len(verts):
        raise GraphError(f"vertex {min(vset.difference(reached))} is not reachable from {root}")

    if orderings is not None and not vset.issuperset(orderings):
        raise GraphError(f"ordering at unknown vertex {min(set(orderings) - vset)}")
    fixed: dict[str, tuple[str, ...]] = {}
    for v in verts:
        if orderings is None or v not in orderings:
            fixed[v] = tuple(out[v])
        else:
            pinned = tuple(orderings[v])
            if sorted(pinned) != out[v]:
                raise GraphError(f"ordering at vertex {v} is not a permutation of its out-darts")
            fixed[v] = pinned

    positions = {d: i for order in fixed.values() for i, d in enumerate(order)}
    return OrientedGraph(verts, sources, targets, fixed, valence, darts, positions, tree)


Weight = tuple[int, ...]


class AxialError(GkmError):
    """Inconsistent axial data."""


class AxialFunction(NamedTuple):
    """Dart labeling by integer weight vectors of a fixed length."""

    torus_rank: int
    weights: Mapping[str, Weight]


class GkmGraph(NamedTuple("GkmGraph", [("graph", OrientedGraph), ("axial", AxialFunction),
                                       ("connection", Mapping[str, Mapping[str, str]]), ("validation", "Validation")])):
    """A graph, its weights and its connection, with their validation: the record ``(graph, axial, connection, validation)``.

    ``connection[e]`` is the map of dart ``e``: a bijection from the out-darts
    of its source onto those of its target.  ``validation``, the
    :class:`~gkmgraph.axial.Validation` of the other three fields, is computed
    on construction, by ``_make`` and by ``_replace`` unless it is given, so a
    changed graph, weight or connection never keeps a stale one.
    """

    __slots__ = ()

    def __new__(cls, graph: OrientedGraph, axial: AxialFunction, connection, validation: Validation | None = None):
        from .axial import _validate  # which imports this module

        return super().__new__(cls, graph, axial, connection, validation or _validate(graph, axial, connection))

    @classmethod
    def _make(cls, iterable) -> "GkmGraph":
        return cls(*iterable)

    def _replace(self, **fields) -> "GkmGraph":
        return super()._replace(**{"validation": None, **fields})

    @property
    def m(self) -> int:
        return self.graph.valence

    @property
    def n(self) -> int:
        return self.axial.torus_rank

    def weight(self, dart: str) -> Weight:
        return self.axial.weights[dart]

    def with_weights(self, weights: Mapping[str, Weight], torus_rank: int) -> "GkmGraph":
        """Same graph and connection with the weights replaced, and their validation."""
        return self._replace(axial=AxialFunction(torus_rank, dict(weights)))


def _packed(axial: AxialFunction, darts: Iterable[str]) -> tuple[dict[str, int], int]:
    """Each dart's weight ``w`` as the single integer ``Σ_k w_k·2^(s·k)``, ``s = 2·bitlen(M) + 2``.

    Returns the packing and ``M``, the largest absolute entry among the
    weights of ``darts``.  Packing is linear, and a vector whose entries are
    all below ``2^s`` in absolute value packs to 0 only when it is zero.
    Every vector a congruence test packs has entries of at most
    ``2M(M+1) < 2^s``: the difference of two residues in
    :func:`~gkmgraph.axial._residue_key` (inference), and the remainder
    ``w(a) − w(b) − q·w(e)`` with ``|q| ≤ 2M`` in axiom 3, whose quotients
    are the congruence coefficients.  So each test is exact arithmetic on one
    integer per dart.  A dart without a weight of length ``torus_rank`` raises
    :class:`AxialError`.
    """
    darts = tuple(darts)
    _check_weights(axial, darts)
    weights = axial.weights
    big = max(map(abs, chain.from_iterable(map(weights.__getitem__, darts))), default=0)
    s = 2 * big.bit_length() + 2
    packed = {}
    for d in darts:
        acc = 0
        for x in reversed(weights[d]):
            acc = (acc << s) + x
        packed[d] = acc
    return packed, big


def _check_weights(axial: AxialFunction, darts: Iterable[str]) -> None:
    """Raise :class:`AxialError` unless each of ``darts`` carries a weight of length ``torus_rank``."""
    for d in darts:
        w = axial.weights.get(d)
        if w is None:
            raise AxialError(f"dart {d} carries no weight")
        if len(w) != axial.torus_rank:
            raise AxialError(
                f"weight of dart {d} has length {len(w)}, expected {axial.torus_rank}"
            )
