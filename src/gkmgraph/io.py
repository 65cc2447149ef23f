"""JSON interchange documents and Graphviz export.

A document stores one labeled graph: the weight-vector length, the vertices,
one record per undirected edge (the forward dart's weight; the reverse dart
``X~`` implicitly carries the negated weight), and optional connection and
ordering sections.  Parsing is purely structural; the axioms are checked by
:func:`gkmgraph.axial.validate_axial` once a graph is assembled.

The connection, most of a document, is held once: the decoder turns each
dart's list of pairs into a dict of interned dart ids while it reads, and
that dict becomes the assembled graph's connection map.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii
from typing import Mapping, NamedTuple

from .axial import AxialFunction, GkmGraph, infer_connection
from .errors import GkmError
from .graph import REVERSE_SUFFIX, OrientedGraph, build_graph, reverse_name


class ParseError(GkmError):
    """The input is not well-formed JSON."""


class SchemaError(GkmError):
    """The JSON is well-formed but does not match the document schema."""


class EdgeRecord(NamedTuple):
    id: str
    source: str
    target: str
    weight: tuple[int, ...]


class ConnectionEntry(NamedTuple):
    dart: str
    images: Mapping[str, str]


class GkmDocument(NamedTuple):
    torus_rank: int
    vertices: tuple[str, ...]
    edges: tuple[EdgeRecord, ...]
    connection: tuple[ConnectionEntry, ...] | None = None
    orderings: Mapping[str, tuple[str, ...]] | None = None


def _is_int(x) -> bool:
    """JSON integers only: ``bool`` subclasses ``int`` but is not one here."""
    return isinstance(x, int) and not isinstance(x, bool)


class _Images(dict):
    """A connection map decoded from its list of pairs, each dart id interned."""


def _images(maps: list, path: str) -> _Images:
    """``[source, image]`` pairs as a map; a malformed or repeated source raises :class:`SchemaError`."""
    images = _Images()
    for kk, pair in enumerate(maps):
        if not (isinstance(pair, list) and len(pair) == 2
                and isinstance(pair[0], str) and isinstance(pair[1], str)):
            raise SchemaError(f"{path}.maps[{kk}]: expected a pair of dart ids")
        if pair[0] in images:
            raise SchemaError(f"{path}.maps[{kk}]: dart {pair[0]} is mapped twice")
        images[sys.intern(pair[0])] = sys.intern(pair[1])
    return images


def _decode_object(pairs: list) -> dict:
    """A JSON object; in one shaped ``{"dart", "maps"}``, ``maps`` is decoded by :func:`_images`.

    This runs as each object closes, so the pair lists are freed entry by
    entry.  A map it cannot decode is left as it is for the schema walk.
    """
    obj = dict(pairs)
    if len(pairs) == 2 and obj.keys() == {"dart", "maps"} and isinstance(obj["maps"], list):
        try:
            obj["maps"] = _images(obj["maps"], "")
        except SchemaError:
            pass
    return obj


def parse_gkm(text: str) -> GkmDocument:
    """Parse a document, raising :class:`ParseError` or :class:`SchemaError`."""
    try:
        obj = json.loads(text, object_pairs_hook=_decode_object)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("arrays or objects are nested too deeply") from exc
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"an integer literal exceeds Python's int-max-str-digits limit of {limit} digits") from exc
    # a path and message is formatted only when its check fails, not per edge
    if not isinstance(obj, dict):
        raise SchemaError("$: expected a JSON object")
    unknown = set(obj) - {"torus_rank", "vertices", "edges", "connection", "orderings"}
    if unknown:
        raise SchemaError(f"$: unknown fields: {sorted(unknown)}")

    rank = obj.get("torus_rank")
    if not (_is_int(rank) and rank >= 1):
        raise SchemaError("torus_rank: expected a positive integer")
    vertices = obj.get("vertices")
    if not (isinstance(vertices, list) and all(isinstance(x, str) for x in vertices)):
        raise SchemaError("vertices: expected a list of strings")
    vertex_ids = set(vertices)
    if len(vertex_ids) != len(vertices):
        raise SchemaError("vertices: duplicate vertex ids")

    raw_edges = obj.get("edges")
    if not isinstance(raw_edges, list):
        raise SchemaError("edges: expected a list")
    edges, seen_edges = [], set()
    for k, e in enumerate(raw_edges):
        if not isinstance(e, dict):
            raise SchemaError(f"edges[{k}]: expected an object")
        if e.keys() != {"id", "endpoints", "weight"}:
            raise SchemaError(f"edges[{k}]: expected fields id, endpoints, weight")
        eid = e["id"]
        if not (isinstance(eid, str) and eid):
            raise SchemaError(f"edges[{k}].id: expected a nonempty string")
        if REVERSE_SUFFIX in eid:
            raise SchemaError(f"edges[{k}].id: edge ids must not contain {REVERSE_SUFFIX!r}")
        if eid in seen_edges:
            raise SchemaError(f"edges[{k}].id: duplicate edge id")
        seen_edges.add(eid)
        ends = e["endpoints"]
        if not (isinstance(ends, list) and len(ends) == 2 and all(isinstance(x, str) for x in ends)):
            raise SchemaError(f"edges[{k}].endpoints: expected a pair of vertex ids")
        if not (ends[0] in vertex_ids and ends[1] in vertex_ids):
            raise SchemaError(f"edges[{k}].endpoints: unknown vertex")
        weight = e["weight"]
        if not (isinstance(weight, list) and all(_is_int(x) for x in weight)):
            raise SchemaError(f"edges[{k}].weight: expected a list of integers")
        if len(weight) != rank:
            raise SchemaError(f"edges[{k}].weight: expected {rank} integers, got {len(weight)}")
        edges.append(EdgeRecord(eid, ends[0], ends[1], tuple(weight)))

    connection = None
    if obj.get("connection") is not None:
        raw_conn = obj["connection"]
        if not isinstance(raw_conn, list):
            raise SchemaError("connection: expected a list")
        entries, seen_darts = [], set()
        for k, c in enumerate(raw_conn):
            if not (isinstance(c, dict) and c.keys() == {"dart", "maps"}):
                raise SchemaError(f"connection[{k}]: expected fields dart, maps")
            dart = c["dart"]
            if not isinstance(dart, str):
                raise SchemaError(f"connection[{k}].dart: expected a string")
            if dart in seen_darts:
                raise SchemaError(f"connection[{k}].dart: duplicate dart")
            seen_darts.add(dart)
            maps = c["maps"]
            if type(maps) is not _Images:
                # the decoder left it: a duplicated key, or an error to report
                if not isinstance(maps, list):
                    raise SchemaError(f"connection[{k}].maps: expected a list of pairs")
                maps = _images(maps, f"connection[{k}]")
            entries.append(ConnectionEntry(dart, maps))
        connection = tuple(entries)

    orderings = None
    if obj.get("orderings") is not None:
        raw_ord = obj["orderings"]
        if not isinstance(raw_ord, dict):
            raise SchemaError("orderings: expected an object")
        orderings = {}
        for v, lst in raw_ord.items():
            if v not in vertex_ids:
                raise SchemaError(f"orderings.{v}: unknown vertex")
            if not (isinstance(lst, list) and all(isinstance(x, str) for x in lst)):
                raise SchemaError(f"orderings.{v}: expected a list of strings")
            orderings[v] = tuple(lst)

    return GkmDocument(rank, tuple(vertices), tuple(edges), connection, orderings)


class _Quoted(dict):
    """JSON string literals by string, each quoted once by the C function ``json.dumps`` uses."""

    def __missing__(self, text: str) -> str:
        self[text] = literal = encode_basestring_ascii(text)
        return literal


def _block(brackets: str, items: list[str], pad: str) -> str:
    """``items``, each laid out at indent ``pad + "  "``, as one array (``"[]"``) or object (``"{}"``)."""
    if not items:
        return brackets
    return f"{brackets[0]}\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}{brackets[1]}"


def emit_gkm(doc: GkmDocument) -> str:
    """Serialize a document; ``parse_gkm(emit_gkm(doc)) == doc``.

    The text is ``json.dumps(obj, indent=2) + "\\n"`` of the document as a JSON
    object, byte for byte, laid out here because ``json.dumps`` runs its
    pure-Python encoder whenever ``indent`` is set.  Each distinct string is
    quoted once, by the C function ``json.dumps`` uses; integers by ``repr``.
    """
    q = _Quoted()
    edges = []
    for e in doc.edges:
        ends = _block("[]", [q[e.source], q[e.target]], "      ")
        weight = _block("[]", list(map(repr, e.weight)), "      ")
        edges.append(_block("{}", [f'"id": {q[e.id]}', f'"endpoints": {ends}', f'"weight": {weight}'], "    "))
    fields = [
        f'"torus_rank": {doc.torus_rank!r}',
        '"vertices": ' + _block("[]", [q[v] for v in doc.vertices], "  "),
        '"edges": ' + _block("[]", edges, "  "),
    ]
    if doc.connection is not None:
        entries = []
        for c in doc.connection:
            # one string per pair: a connection holds tens of thousands of them
            pairs = [f"[\n          {q[a]},\n          {q[b]}\n        ]" for a, b in c.images.items()]
            maps = _block("[]", pairs, "      ")
            entries.append(_block("{}", [f'"dart": {q[c.dart]}', f'"maps": {maps}'], "    "))
        fields.append('"connection": ' + _block("[]", entries, "  "))
    if doc.orderings is not None:
        orderings = [f"{q[v]}: " + _block("[]", [q[d] for d in o], "    ") for v, o in doc.orderings.items()]
        fields.append('"orderings": ' + _block("{}", orderings, "  "))
    return _block("{}", fields, "") + "\n"


def document_from_gkm(gkm: GkmGraph) -> GkmDocument:
    """Snapshot a labeled graph, pinning its connection and orderings."""
    g = gkm.graph
    edges = tuple(EdgeRecord(e, g.source(e), g.target(e), gkm.weight(e)) for e in g.edge_representatives())
    entries = []
    for d in g.darts:
        nabla = gkm.connection[d]
        entries.append(ConnectionEntry(d, {e2: nabla[e2] for e2 in g.out_darts(g.source(d))}))
    return GkmDocument(
        torus_rank=gkm.axial.torus_rank,
        vertices=g.vertices,
        edges=edges,
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
    """Assemble a labeled graph; the connection is inferred when absent.

    Each entry's ``images`` becomes the graph's map for that dart as it is, not copied.
    """
    graph, axial = labels_from_document(doc)
    if doc.connection is None:
        return GkmGraph(graph, axial, infer_connection(graph, axial))
    maps: dict[str, dict[str, str]] = {}
    outs = {v: set(graph.out_darts(v)) for v in graph.vertices}
    for entry in doc.connection:
        if entry.dart not in graph.sources:
            raise SchemaError(f"connection: unknown dart {entry.dart}")
        nabla = entry.images
        source, target = graph.source(entry.dart), graph.target(entry.dart)
        if nabla.keys() != outs[source] or set(nabla.values()) != outs[target]:
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
    return GkmGraph(graph, axial, maps)


def load_gkm(text: str) -> GkmGraph:
    """Parse and assemble a document."""
    return gkm_from_document(parse_gkm(text))


def format_vector(v: tuple[int, ...]) -> str:
    """An integer vector as ``(a, b, c)``, as the command line and DOT labels print it."""
    return "(" + ", ".join(map(repr, v)) + ")"


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
        from .congruence import invariant_function

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
