"""JSON interchange documents: the read side, which every command loads.

A document stores one labeled graph: the weight-vector length, the vertices,
one record per undirected edge (the forward dart's weight; the reverse dart
``X~`` implicitly carries the negated weight), and optional connection and
ordering sections.  Parsing checks only the shape and types of the JSON;
assembly (:func:`gkm_from_document`) leaves ids and references to
:func:`~gkmgraph.graph.build_graph`, as every graph does, and the record it
builds validates itself.  ``validate`` prints that validation; :func:`load_gkm`
also refuses a graph failing an axiom, and so does every other command but
``gen``, which writes the unvalidated parts (:func:`_assembled`).

The decoder knows two records, each by its fields in the writer's order, and
decodes each once, as ``json.loads`` closes it: an edge object becomes its
:class:`EdgeRecord`, and a connection entry the dict of its pairs, which keeps
its dart and stays the assembled graph's connection map for that dart, so the
connection, most of a document, is never held twice over.  The schema walk
places the orderings, each a tuple, and interns every id the records did not,
so each id is one string throughout the loaded graph
(:func:`~gkmgraph.graph.build_graph` interns each reverse id).  The walk checks
what a record cannot know alone: the weight length against ``torus_rank``, a
dart named twice, and a record in another kind's place, which it turns back
into the object it was read from, so that every error names the same field as
a walk over plain objects would.  A record the decoder leaves (malformed, with
a repeated field, or with its fields in another order) the walk checks and
decodes in full.  :func:`parse_gkm` drops the text once ``json.loads`` has
decoded it, so a caller that passes the text on without holding it frees it
before the walk.

Loading a document loads :mod:`gkmgraph.axial`, to validate it and to infer a
missing connection.  Writing documents and DOT text is :mod:`gkmgraph.writer`,
which only ``gen``, ``extend``, ``project`` and ``dot`` load.
"""

from __future__ import annotations

import json
import sys
from typing import Mapping, NamedTuple

from .graph import AxialFunction, GkmError, GkmGraph, OrientedGraph, build_graph


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


class _Images(dict):
    """A connection entry decoded as it closed: the map of its pairs, each dart id interned, and its dart."""

    __slots__ = ("dart",)


def _images(dart: str, maps: list, path: str) -> _Images:
    """The entry for ``dart`` with ``[source, image]`` pairs; a malformed or repeated source raises :class:`SchemaError`."""
    images = _Images()
    images.dart = dart
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
    images.clear()  # pair by pair again, so that an error names the first bad pair
    for kk, pair in enumerate(maps):
        if not (isinstance(pair, list) and len(pair) == 2
                and isinstance(pair[0], str) and isinstance(pair[1], str)):
            raise SchemaError(f"{path}.maps[{kk}]: expected a pair of dart ids")
        if pair[0] in images:
            raise SchemaError(f"{path}.maps[{kk}]: dart {pair[0]} is mapped twice")
        images[sys.intern(pair[0])] = sys.intern(pair[1])
    return images


def _edge(e, path: str) -> EdgeRecord:
    """An edge object as its record, ids interned; a malformed one raises :class:`SchemaError` naming ``path``."""
    if not isinstance(e, dict):
        raise SchemaError(f"{path}: expected an object")
    if e.keys() != {"id", "endpoints", "weight"}:
        raise SchemaError(f"{path}: expected fields id, endpoints, weight")
    eid = e["id"]
    if not (isinstance(eid, str) and eid):
        raise SchemaError(f"{path}.id: expected a nonempty string")
    ends = e["endpoints"]
    if not (isinstance(ends, list) and len(ends) == 2 and all(isinstance(x, str) for x in ends)):
        raise SchemaError(f"{path}.endpoints: expected a pair of vertex ids")
    weight = e["weight"]
    if not (isinstance(weight, list) and set(map(type, weight)) <= {int}):  # bool is not int here
        raise SchemaError(f"{path}.weight: expected a list of integers")
    return EdgeRecord(sys.intern(eid), sys.intern(ends[0]), sys.intern(ends[1]), tuple(weight))


def _decode_object(pairs: list):
    """A JSON object, decoded as it closes when it is a well-formed record with its fields in written order.

    An edge object becomes its :class:`EdgeRecord` and a connection entry its
    :class:`_Images`; anything else stays a dict for the schema walk.  Where
    the walk expects another kind it turns a record back into its object
    (:func:`_as_object`), which the written field order makes exact.
    """
    keys = [k for k, _ in pairs]
    if keys == ["id", "endpoints", "weight"]:
        try:
            return _edge(dict(pairs), "")
        except SchemaError:
            pass
    elif keys == ["dart", "maps"]:
        (_, dart), (_, maps) = pairs
        if type(dart) is str and type(maps) is list:
            try:
                return _images(sys.intern(dart), maps, "")
            except SchemaError:
                pass
    return dict(pairs)


def _as_object(x):
    """A record decoded by :func:`_decode_object` as the object it was read from; any other value as it is."""
    if type(x) is EdgeRecord:
        return {"id": x.id, "endpoints": [x.source, x.target], "weight": list(x.weight)}
    if type(x) is _Images:
        return {"dart": x.dart, "maps": [list(pair) for pair in x.items()]}
    return x


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
    # a path and message is formatted only when its check fails, not per record
    obj = _as_object(obj)
    if not isinstance(obj, dict):
        raise SchemaError("$: expected a JSON object")
    unknown = set(obj) - {"torus_rank", "vertices", "edges", "connection", "orderings"}
    if unknown:
        raise SchemaError(f"$: unknown fields: {sorted(unknown)}")

    rank = obj.get("torus_rank")
    if not (type(rank) is int and rank >= 1):  # bool is not int here
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
        if type(e) is not EdgeRecord:
            e = _edge(_as_object(e), f"edges[{k}]")
        if len(e.weight) != rank:
            raise SchemaError(f"edges[{k}].weight: expected {rank} integers, got {len(e.weight)}")
        edges.append(e)

    connection = None
    if obj.get("connection") is not None:
        raw_conn = obj["connection"]
        if not isinstance(raw_conn, list):
            raise SchemaError("connection: expected a list")
        connection = {}
        for k, c in enumerate(raw_conn):
            decoded = type(c) is _Images
            if decoded:
                dart, maps = c.dart, c
            else:
                c = _as_object(c)
                if not (isinstance(c, dict) and c.keys() == {"dart", "maps"}):
                    raise SchemaError(f"connection[{k}]: expected fields dart, maps")
                dart, maps = c["dart"], c["maps"]
                if not isinstance(dart, str):
                    raise SchemaError(f"connection[{k}].dart: expected a string")
            if dart in connection:
                raise SchemaError(f"connection[{k}].dart: duplicate dart")
            if not decoded:
                # the decoder left it: a duplicated key, another field order, or an error to report
                if not isinstance(maps, list):
                    raise SchemaError(f"connection[{k}].maps: expected a list of pairs")
                maps = _images(sys.intern(dart), maps, f"connection[{k}]")
            connection[maps.dart] = maps

    orderings = None
    if obj.get("orderings") is not None:
        raw_orderings = _as_object(obj["orderings"])
        if not isinstance(raw_orderings, dict):
            raise SchemaError("orderings: expected an object")
        orderings = {}
        for v, lst in raw_orderings.items():
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
    """Assemble a labeled graph, which validates itself; an absent connection is inferred, on the packing validation reads."""
    if doc.connection is not None:
        return GkmGraph(*_assembled(doc))
    from .axial import _inferred, _validate

    graph, axial = labels_from_document(doc)
    maps, packing = _inferred(graph, axial)
    return GkmGraph(graph, axial, maps, _validate(graph, axial, maps, packing))


def _assembled(doc: GkmDocument) -> tuple[OrientedGraph, AxialFunction, dict[str, Mapping[str, str]]]:
    """The graph, weights and connection of a document that pins its connection, not validated.

    Each of the document's maps becomes the graph's map for its dart as it is, not copied, and
    a dart with no map gets the inverse of its reverse's map.  Whether each map is a bijection
    between the out-darts is axiom 3's to check.
    """
    graph, axial = labels_from_document(doc)
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
    return graph, axial, maps


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
