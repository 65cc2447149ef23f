"""JSON interchange documents: the read side, which every command loads.

A document stores one labeled graph: the weight-vector length, the vertices,
one record per undirected edge (the forward dart's weight; the reverse dart
``X~`` implicitly carries the negated weight), and optional connection and
ordering sections.  Parsing checks only the shape and types of the JSON;
assembly (:func:`gkm_from_document`) leaves ids and references to
:func:`~gkmgraph.graph.build_graph`, as every graph does.  ``validate`` prints
the assembled graph's validation; :func:`load_gkm` also refuses a graph
failing an axiom, and so does every other command, which loads a file the
same way.

The connection, most of a document, is held once: the decoder turns each
dart's list of pairs into a dict of interned dart ids while it reads, and
that dict becomes the assembled graph's connection map.  A document keys
these maps by dart, as the graph does, so it holds at most one per dart.  :func:`parse_gkm`
drops the text once ``json.loads`` has decoded it, so a caller that passes
the text on without holding it frees it before the schema walk, and the
decoded tree goes when the walk returns.  The walk interns every vertex id,
edge id, endpoint, ordering entry and connection dart, and
:func:`~gkmgraph.graph.build_graph` each reverse id, so each id is one string
throughout the loaded graph.

Loading a document loads :mod:`gkmgraph.axial`, to validate it and to infer a
missing connection.  Writing documents and DOT text is :mod:`gkmgraph.writer`,
which only ``gen``, ``extend``, ``project`` and ``dot`` load.
"""

from __future__ import annotations

import json
import sys
from typing import Mapping, NamedTuple

from .errors import GkmError
from .graph import AxialFunction, GkmGraph, OrientedGraph, build_graph


class ParseError(GkmError):
    """The input is not well-formed JSON."""


class SchemaError(GkmError):
    """The JSON is well-formed but does not match the document schema."""


class EdgeRecord(NamedTuple):
    id: str
    source: str
    target: str
    weight: tuple[int, ...]


class GkmDocument(NamedTuple):
    torus_rank: int
    vertices: tuple[str, ...]
    edges: tuple[EdgeRecord, ...]
    connection: Mapping[str, Mapping[str, str]] | None = None
    orderings: Mapping[str, tuple[str, ...]] | None = None


def _is_int(x) -> bool:
    """JSON integers only: ``bool`` subclasses ``int`` but is not one here."""
    return isinstance(x, int) and not isinstance(x, bool)


class _Images(dict):
    """A connection map decoded from its list of pairs, each dart id interned."""


def _images(maps: list, path: str) -> _Images:
    """``[source, image]`` pairs as a map; a malformed or repeated source raises :class:`SchemaError`."""
    images = _Images()
    for pair in maps:
        if type(pair) is list and len(pair) == 2:
            source, image = pair
            if type(source) is str and type(image) is str:
                images[sys.intern(source)] = sys.intern(image)
                continue
        break
    else:
        if len(images) == len(maps):  # every source is new
            return images
    return _images_by_index(maps, path)  # raises, naming the first bad pair


def _images_by_index(maps: list, path: str) -> _Images:
    """:func:`_images` on a fresh map, pair by pair, so that an error names the first bad pair."""
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
    """A JSON object; in one shaped ``{"dart", "maps"}``, a nonempty ``maps`` is decoded by :func:`_images`.

    This runs as each object closes, so the pair lists are freed entry by
    entry.  A map it cannot decode is left as it is for the schema walk, and
    so is an empty list, which may be the ordering at a vertex named ``maps``.
    """
    obj = dict(pairs)
    if len(pairs) == 2 and obj.keys() == {"dart", "maps"} and isinstance(obj["maps"], list) and obj["maps"]:
        try:
            obj["maps"] = _images(obj["maps"], "")
        except SchemaError:
            pass
    return obj


def parse_gkm(text: str) -> GkmDocument:
    """Parse a document, raising :class:`ParseError` or :class:`SchemaError`; ids are checked on assembly."""
    try:
        obj = json.loads(text, object_pairs_hook=_decode_object)
        del text  # a caller passing the text on, not holding it, frees it here
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
    vertices = tuple(map(sys.intern, vertices))

    raw_edges = obj.get("edges")
    if not isinstance(raw_edges, list):
        raise SchemaError("edges: expected a list")
    edges = []
    for k, e in enumerate(raw_edges):
        if not isinstance(e, dict):
            raise SchemaError(f"edges[{k}]: expected an object")
        if e.keys() != {"id", "endpoints", "weight"}:
            raise SchemaError(f"edges[{k}]: expected fields id, endpoints, weight")
        eid = e["id"]
        if not (isinstance(eid, str) and eid):
            raise SchemaError(f"edges[{k}].id: expected a nonempty string")
        ends = e["endpoints"]
        if not (isinstance(ends, list) and len(ends) == 2 and all(isinstance(x, str) for x in ends)):
            raise SchemaError(f"edges[{k}].endpoints: expected a pair of vertex ids")
        source, target = map(sys.intern, ends)
        weight = e["weight"]
        if not (isinstance(weight, list) and set(map(type, weight)) <= {int}):  # bool is not int here
            raise SchemaError(f"edges[{k}].weight: expected a list of integers")
        if len(weight) != rank:
            raise SchemaError(f"edges[{k}].weight: expected {rank} integers, got {len(weight)}")
        edges.append(EdgeRecord(sys.intern(eid), source, target, tuple(weight)))

    connection = None
    if obj.get("connection") is not None:
        raw_conn = obj["connection"]
        if not isinstance(raw_conn, list):
            raise SchemaError("connection: expected a list")
        connection = {}
        for k, c in enumerate(raw_conn):
            if not (isinstance(c, dict) and c.keys() == {"dart", "maps"}):
                raise SchemaError(f"connection[{k}]: expected fields dart, maps")
            dart = c["dart"]
            if not isinstance(dart, str):
                raise SchemaError(f"connection[{k}].dart: expected a string")
            if dart in connection:
                raise SchemaError(f"connection[{k}].dart: duplicate dart")
            maps = c["maps"]
            if type(maps) is not _Images:
                # the decoder left it: a duplicated key, or an error to report
                if not isinstance(maps, list):
                    raise SchemaError(f"connection[{k}].maps: expected a list of pairs")
                maps = _images(maps, f"connection[{k}]")
            connection[sys.intern(dart)] = maps

    orderings = None
    if obj.get("orderings") is not None:
        raw_ord = obj["orderings"]
        if not isinstance(raw_ord, dict):
            raise SchemaError("orderings: expected an object")
        orderings = {}
        for v, lst in raw_ord.items():
            if not (isinstance(lst, list) and all(isinstance(x, str) for x in lst)):
                raise SchemaError(f"orderings.{v}: expected a list of strings")
            orderings[sys.intern(v)] = tuple(map(sys.intern, lst))

    return GkmDocument(rank, vertices, tuple(edges), connection, orderings)


def labels_from_document(doc: GkmDocument) -> tuple[OrientedGraph, AxialFunction]:
    """The graph and axial function of a document; ``graph.reverse(e)`` carries the negated weight of ``e``."""
    graph = build_graph(
        doc.vertices,
        [(e.id, e.source, e.target) for e in doc.edges],
        orderings=doc.orderings,
    )
    weights: dict[str, tuple[int, ...]] = {}
    for e in doc.edges:
        weights[e.id] = e.weight
        weights[graph.reverse(e.id)] = tuple(-x for x in e.weight)
    return graph, AxialFunction(doc.torus_rank, weights)


def gkm_from_document(doc: GkmDocument) -> GkmGraph:
    """Assemble a labeled graph, not validated; the connection is inferred when absent.

    Each of the document's maps becomes the graph's map for its dart as it is, not copied, and
    a dart with no map gets the inverse of its reverse's map.  Whether each map is a bijection
    between the out-darts is axiom 3's to check.
    """
    graph, axial = labels_from_document(doc)
    if doc.connection is None:
        from .axial import _inferred

        return _inferred(graph, axial)
    maps = dict(doc.connection)
    for d in maps:
        if d not in graph.sources:
            raise SchemaError(f"connection: unknown dart {d}")
    for d in graph.darts:
        if d in maps:
            continue
        back = maps.get(graph.reverse(d))
        if back is None:
            raise SchemaError(f"connection: no map for dart {d} or its reverse")
        maps[d] = {img: src for src, img in back.items()}
    return GkmGraph(graph, axial, maps)


def load_gkm(text: str) -> GkmGraph:
    """Parse, assemble and validate a document; failing an axiom raises ``AxiomViolationError``."""
    from .axial import validated

    return validated(gkm_from_document(parse_gkm(text)))


def format_vector(v: tuple[int, ...]) -> str:
    """An integer vector as ``(a, b, c)``, as the command line and DOT labels print it."""
    return "(" + ", ".join(map(repr, v)) + ")"


def __getattr__(name: str):
    """The writer's names, as ``perfbench/tracer.py`` looks them up until it reads a recorder."""
    if name in ("document_from_gkm", "emit_dot", "emit_gkm"):
        from . import writer

        return getattr(writer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
