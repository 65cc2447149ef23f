"""The write side of documents: JSON emission and Graphviz export.

Only the commands that write a document or DOT text load this module:
``gen``, ``extend``, ``project`` and ``dot``.  Reading and assembling a
document is :mod:`gkmgraph.io`.

The text is laid out in pieces: :func:`iter_gkm` yields a document one edge
record, connection entry or ordering at a time and :func:`iter_dot` the DOT
text one line at a time, and the commands write each piece as it comes, so
none holds the text it writes.  :func:`emit_gkm` and :func:`emit_dot` join
the pieces for library callers.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Mapping

from .graph import GkmGraph
from .io import EdgeRecord, GkmDocument, format_vector


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


def _pieces(brackets: str, items: Iterable[str], pad: str) -> Iterator[str]:
    """The text of ``_block(brackets, list(items), pad)``, one piece per item, the closing bracket last."""
    sep = f"{brackets[0]}\n{pad}  "
    for item in items:
        yield sep + item
        sep = f",\n{pad}  "
    yield f"\n{pad}{brackets[1]}" if sep[0] == "," else brackets


def _edge(e: EdgeRecord, q: _Quoted) -> str:
    ends = _block("[]", [q[e.source], q[e.target]], "      ")
    weight = _block("[]", list(map(repr, e.weight)), "      ")
    return _block("{}", [f'"id": {q[e.id]}', f'"endpoints": {ends}', f'"weight": {weight}'], "    ")


def _entry(dart: str, images: Mapping[str, str], q: _Quoted) -> str:
    # one string per pair: a connection holds tens of thousands of them
    pairs = [f"[\n          {q[a]},\n          {q[b]}\n        ]" for a, b in images.items()]
    return _block("{}", [f'"dart": {q[dart]}', '"maps": ' + _block("[]", pairs, "      ")], "    ")


def iter_gkm(doc: GkmDocument) -> Iterator[str]:
    """The text of :func:`emit_gkm` in pieces, none of them more than one edge, entry or ordering long.

    The header (torus rank and vertices) comes first, then one piece per edge
    record, one per connection entry and one per ordering, then the closing
    brace, so a writer passing them on never holds the whole text.  A weight
    entry past Python's limit on the digits of an ``int`` written as text raises
    ``ValueError`` here, before the first piece, so that nothing is written.
    """
    repr(max(map(abs, chain.from_iterable(e.weight for e in doc.edges)), default=0))
    return _gkm_pieces(doc)


def _gkm_pieces(doc: GkmDocument) -> Iterator[str]:
    q = _Quoted()
    vertices = _block("[]", [q[v] for v in doc.vertices], "  ")
    yield f'{{\n  "torus_rank": {doc.torus_rank!r},\n  "vertices": {vertices},\n  "edges": '
    yield from _pieces("[]", (_edge(e, q) for e in doc.edges), "  ")
    if doc.connection is not None:
        yield ',\n  "connection": '
        yield from _pieces("[]", (_entry(d, images, q) for d, images in doc.connection.items()), "  ")
    if doc.orderings is not None:
        yield ',\n  "orderings": '
        orderings = (f"{q[v]}: " + _block("[]", [q[d] for d in o], "    ") for v, o in doc.orderings.items())
        yield from _pieces("{}", orderings, "  ")
    yield "\n}\n"


def emit_gkm(doc: GkmDocument) -> str:
    """Serialize a document; ``parse_gkm(emit_gkm(doc)) == doc``.

    The text is ``json.dumps(obj, indent=2) + "\\n"`` of the document as a JSON
    object, byte for byte, laid out here because ``json.dumps`` runs its
    pure-Python encoder whenever ``indent`` is set.  Each distinct string is
    quoted once, by the C function ``json.dumps`` uses; integers by ``repr``.
    It joins the pieces of :func:`iter_gkm`, which the commands write one by one.
    """
    return "".join(iter_gkm(doc))


def document_from_gkm(gkm: GkmGraph) -> GkmDocument:
    """Snapshot a labeled graph, pinning its connection and orderings."""
    g = gkm.graph
    edges = tuple(EdgeRecord(e, g.source(e), g.target(e), gkm.weight(e)) for e in g.edge_representatives())
    nabla = gkm.connection
    return GkmDocument(
        torus_rank=gkm.axial.torus_rank,
        vertices=g.vertices,
        edges=edges,
        connection={d: {e2: nabla[d][e2] for e2 in g.out_darts(g.source(d))} for d in g.darts},
        orderings={v: g.out_darts(v) for v in g.vertices},
    )


def _dot_string(text: str) -> str:
    """``text`` as a double-quoted DOT string, with ``\\`` and ``"`` escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def iter_dot(gkm: GkmGraph, annotate: str = "none") -> Iterator[str]:
    """The lines of :func:`emit_dot`, each with its line break, one at a time."""
    if annotate not in ("none", "weights", "congruence"):
        raise ValueError(f"unknown annotation mode {annotate!r}")
    g = gkm.graph
    yield "graph gkm {\n"
    for v in g.vertices:
        yield f"  {_dot_string(v)};\n"
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
            yield f"  {ends};\n"
            continue
        yield f"  {ends} [label={_dot_string(label)}];\n"
    yield "}\n"


def emit_dot(gkm: GkmGraph, annotate: str = "none") -> str:
    """Graphviz text with one undirected edge per dart pair.

    ``annotate`` is ``"none"``, ``"weights"`` (forward-dart weight) or
    ``"congruence"`` (the coefficient vectors of both darts).  Output order is
    fixed, so equal graphs produce identical text.  It joins the lines of
    :func:`iter_dot`, which ``dot`` writes one by one.
    """
    return "".join(iter_dot(gkm, annotate))
