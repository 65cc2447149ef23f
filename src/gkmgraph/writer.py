"""The write side of documents: JSON emission and Graphviz export.

Only the commands that write a document or DOT text load this module:
``gen``, ``extend``, ``project`` and ``dot``.  Reading and assembling a
document is :mod:`gkmgraph.io`.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

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
        for dart, images in doc.connection.items():
            # one string per pair: a connection holds tens of thousands of them
            pairs = [f"[\n          {q[a]},\n          {q[b]}\n        ]" for a, b in images.items()]
            maps = _block("[]", pairs, "      ")
            entries.append(_block("{}", [f'"dart": {q[dart]}', f'"maps": {maps}'], "    "))
        fields.append('"connection": ' + _block("[]", entries, "  "))
    if doc.orderings is not None:
        orderings = [f"{q[v]}: " + _block("[]", [q[d] for d in o], "    ") for v, o in doc.orderings.items()]
        fields.append('"orderings": ' + _block("{}", orderings, "  "))
    return _block("{}", fields, "") + "\n"


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
