"""JSON interchange documents and Graphviz export.

A document stores one labeled graph: the weight-vector length, the vertices,
one record per undirected edge (the forward dart's weight; the reverse dart
``X~`` implicitly carries the negated weight), and optional connection and
ordering sections.  Parsing is purely structural; the axioms are checked by
:func:`gkmgraph.axial.validate_axial` once a graph is assembled.
"""

from __future__ import annotations

import gc
import json
import sys
from dataclasses import dataclass
from typing import Mapping

from .axial import AxialFunction, Connection, GkmGraph, infer_connection
from .congruence import invariant_function
from .errors import GkmError
from .graph import REVERSE_SUFFIX, OrientedGraph, build_graph, reverse_name


class ParseError(GkmError):
    """The input is not well-formed JSON."""


class SchemaError(GkmError):
    """The JSON is well-formed but does not match the document schema."""


@dataclass(frozen=True)
class EdgeRecord:
    id: str
    source: str
    target: str
    weight: tuple[int, ...]


@dataclass(frozen=True)
class ConnectionEntry:
    dart: str
    images: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class GkmDocument:
    torus_rank: int
    vertices: tuple[str, ...]
    edges: tuple[EdgeRecord, ...]
    connection: tuple[ConnectionEntry, ...] | None = None
    orderings: Mapping[str, tuple[str, ...]] | None = None


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise SchemaError(f"{path}: {message}")


def _is_int(x) -> bool:
    """JSON integers only: ``bool`` subclasses ``int`` but is not one here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _string_list(obj, path: str) -> tuple[str, ...]:
    _expect(isinstance(obj, list) and all(isinstance(x, str) for x in obj), path, "expected a list of strings")
    return tuple(obj)


def parse_gkm(text: str) -> GkmDocument:
    """Parse a document, raising :class:`ParseError` or :class:`SchemaError`."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("arrays or objects are nested too deeply") from exc
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"an integer literal exceeds Python's int-max-str-digits limit of {limit} digits") from exc
    _expect(isinstance(obj, dict), "$", "expected a JSON object")
    unknown = set(obj) - {"torus_rank", "vertices", "edges", "connection", "orderings"}
    _expect(not unknown, "$", f"unknown fields: {sorted(unknown)}")

    rank = obj.get("torus_rank")
    _expect(_is_int(rank) and rank >= 1, "torus_rank", "expected a positive integer")
    vertices = _string_list(obj.get("vertices"), "vertices")
    _expect(len(set(vertices)) == len(vertices), "vertices", "duplicate vertex ids")

    raw_edges = obj.get("edges")
    _expect(isinstance(raw_edges, list), "edges", "expected a list")
    edges = []
    seen_edges = set()
    for k, e in enumerate(raw_edges):
        path = f"edges[{k}]"
        _expect(isinstance(e, dict), path, "expected an object")
        _expect(set(e) == {"id", "endpoints", "weight"}, path, "expected fields id, endpoints, weight")
        eid = e["id"]
        _expect(isinstance(eid, str) and eid, f"{path}.id", "expected a nonempty string")
        _expect(REVERSE_SUFFIX not in eid, f"{path}.id", f"edge ids must not contain {REVERSE_SUFFIX!r}")
        _expect(eid not in seen_edges, f"{path}.id", "duplicate edge id")
        seen_edges.add(eid)
        ends = e["endpoints"]
        _expect(
            isinstance(ends, list) and len(ends) == 2 and all(isinstance(x, str) for x in ends),
            f"{path}.endpoints", "expected a pair of vertex ids",
        )
        _expect(ends[0] in vertices and ends[1] in vertices, f"{path}.endpoints", "unknown vertex")
        weight = e["weight"]
        _expect(
            isinstance(weight, list) and all(_is_int(x) for x in weight),
            f"{path}.weight", "expected a list of integers",
        )
        _expect(len(weight) == rank, f"{path}.weight", f"expected {rank} integers, got {len(weight)}")
        edges.append(EdgeRecord(eid, ends[0], ends[1], tuple(weight)))

    connection = None
    if obj.get("connection") is not None:
        raw_conn = obj["connection"]
        _expect(isinstance(raw_conn, list), "connection", "expected a list")
        entries = []
        seen_darts = set()
        for k, c in enumerate(raw_conn):
            path = f"connection[{k}]"
            _expect(isinstance(c, dict) and set(c) == {"dart", "maps"}, path, "expected fields dart, maps")
            dart = c["dart"]
            _expect(isinstance(dart, str), f"{path}.dart", "expected a string")
            _expect(dart not in seen_darts, f"{path}.dart", "duplicate dart")
            seen_darts.add(dart)
            maps = c["maps"]
            _expect(isinstance(maps, list), f"{path}.maps", "expected a list of pairs")
            images = []
            for kk, pair in enumerate(maps):
                # no _expect here: its path string would be formatted for every
                # pair, and a document carries tens of thousands of them
                if not (isinstance(pair, list) and len(pair) == 2
                        and isinstance(pair[0], str) and isinstance(pair[1], str)):
                    raise SchemaError(f"{path}.maps[{kk}]: expected a pair of dart ids")
                images.append((pair[0], pair[1]))
            entries.append(ConnectionEntry(dart, tuple(images)))
        connection = tuple(entries)

    orderings = None
    if obj.get("orderings") is not None:
        raw_ord = obj["orderings"]
        _expect(isinstance(raw_ord, dict), "orderings", "expected an object")
        orderings = {}
        for v, lst in raw_ord.items():
            _expect(v in vertices, f"orderings.{v}", "unknown vertex")
            orderings[v] = _string_list(lst, f"orderings.{v}")

    return GkmDocument(rank, vertices, tuple(edges), connection, orderings)


def emit_gkm(doc: GkmDocument) -> str:
    """Serialize a document; ``parse_gkm(emit_gkm(doc)) == doc``."""
    obj: dict = {
        "torus_rank": doc.torus_rank,
        "vertices": list(doc.vertices),
        "edges": [
            {"id": e.id, "endpoints": [e.source, e.target], "weight": list(e.weight)}
            for e in doc.edges
        ],
    }
    if doc.connection is not None:
        obj["connection"] = [
            {"dart": c.dart, "maps": [[a, b] for a, b in c.images]}
            for c in doc.connection
        ]
    if doc.orderings is not None:
        obj["orderings"] = {v: list(order) for v, order in doc.orderings.items()}
    return json.dumps(obj, indent=2) + "\n"


def document_from_gkm(gkm: GkmGraph) -> GkmDocument:
    """Snapshot a labeled graph, pinning its connection and orderings."""
    g = gkm.graph
    edges = []
    for e in g.edge_representatives():
        if g.reverse(e) != reverse_name(e):
            raise GkmError(
                f"dart pair {e}/{g.reverse(e)} does not follow the {REVERSE_SUFFIX!r} naming convention"
            )
        edges.append(EdgeRecord(e, g.source(e), g.target(e), gkm.weight(e)))
    entries = []
    for d in g.darts:
        nabla = gkm.connection.maps[d]
        images = tuple((e2, nabla[e2]) for e2 in g.out_darts(g.source(d)))
        entries.append(ConnectionEntry(d, images))
    return GkmDocument(
        torus_rank=gkm.axial.torus_rank,
        vertices=g.vertices,
        edges=tuple(edges),
        connection=tuple(entries),
        orderings={v: g.out_darts(v) for v in g.vertices},
    )


def labels_from_document(doc: GkmDocument) -> tuple[OrientedGraph, AxialFunction]:
    """The graph and axial function of a document; each ``X~`` carries the negated weight of ``X``."""
    graph = build_graph(
        doc.vertices,
        [(e.id, e.source, e.target) for e in doc.edges],
        orderings=doc.orderings,
    )
    weights: dict[str, tuple[int, ...]] = {}
    for e in doc.edges:
        weights[e.id] = e.weight
        weights[reverse_name(e.id)] = tuple(-x for x in e.weight)
    return graph, AxialFunction(doc.torus_rank, weights)


def gkm_from_document(doc: GkmDocument) -> GkmGraph:
    """Assemble a labeled graph; the connection is inferred when absent."""
    graph, axial = labels_from_document(doc)
    if doc.connection is None:
        return GkmGraph(graph, axial, infer_connection(graph, axial))
    maps: dict[str, dict[str, str]] = {}
    for entry in doc.connection:
        if entry.dart not in graph.sources:
            raise SchemaError(f"connection: unknown dart {entry.dart}")
        nabla = dict(entry.images)
        source, target = graph.source(entry.dart), graph.target(entry.dart)
        if set(nabla) != set(graph.out_darts(source)) or set(nabla.values()) != set(graph.out_darts(target)):
            raise SchemaError(
                f"connection: map for dart {entry.dart} is not a bijection from the out-darts "
                f"of {source} onto those of {target}"
            )
        maps[entry.dart] = nabla
    for d in graph.darts:
        if d in maps:
            continue
        back = maps.get(graph.reverse(d))
        if back is None:
            raise SchemaError(f"connection: no map for dart {d} or its reverse")
        maps[d] = {img: src for src, img in back.items()}
    return GkmGraph(graph, axial, Connection(maps))


def load_gkm(text: str) -> GkmGraph:
    """Parse and assemble a document, with the cyclic garbage collector paused.

    Loading allocates a container per JSON array and per connection pair,
    about 10^5 for grassmannian(12), and forms no reference cycles, so the
    collector's passes over that growing heap would free nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return gkm_from_document(parse_gkm(text))
    finally:
        if enabled:
            gc.enable()


def format_vector(v: tuple[int, ...]) -> str:
    """An integer vector as ``(a, b, c)``, as the command line and DOT labels print it."""
    return "(" + ", ".join(str(x) for x in v) + ")"


def _dot_string(text: str) -> str:
    """``text`` as a double-quoted DOT string, with ``\\`` and ``"`` escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(gkm: GkmGraph, annotate: str = "none") -> str:
    """Graphviz text with one undirected edge per dart pair.

    ``annotate`` is ``"none"``, ``"weights"`` (forward-dart weight) or
    ``"congruence"`` (the coefficient vectors of both darts).  Output order is
    fixed, so equal graphs produce identical text.
    """
    if annotate not in ("none", "weights", "congruence"):
        raise ValueError(f"unknown annotation mode {annotate!r}")
    g = gkm.graph
    lines = ["graph gkm {"]
    for v in g.vertices:
        lines.append(f"  {_dot_string(v)};")
    if annotate == "congruence":
        vectors = invariant_function(gkm)
    for e in g.edge_representatives():
        ends = f"{_dot_string(g.source(e))} -- {_dot_string(g.target(e))}"
        if annotate == "weights":
            label = f"{e}: {format_vector(gkm.weight(e))}"
        elif annotate == "congruence":
            label = f"{format_vector(vectors[e])} / {format_vector(vectors[g.reverse(e)])}"
        else:
            lines.append(f"  {ends};")
            continue
        lines.append(f"  {ends} [label={_dot_string(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
