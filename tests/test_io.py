import copy
import gc
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkmgraph import (
    EdgeRecord,
    GkmDocument,
    GkmGraph,
    GraphError,
    axial_group_basis,
    document_from_gkm,
    emit_dot,
    emit_gkm,
    gen_grassmannian,
    gen_projective,
    gen_s6,
    gkm_from_document,
    load_gkm,
    parse_gkm,
)
from gkmgraph.io import ParseError, SchemaError
from gkmgraph.writer import iter_dot, iter_gkm
from helpers import core_fixtures, parse_by_schema, shuffled_orderings, with_orderings

MINIMAL = """
{
  "torus_rank": 2,
  "vertices": ["p", "q", "r"],
  "edges": [
    {"id": "pq", "endpoints": ["p", "q"], "weight": [1, 0]},
    {"id": "qr", "endpoints": ["q", "r"], "weight": [-1, 1]},
    {"id": "rp", "endpoints": ["r", "p"], "weight": [0, -1]}
  ]
}
"""


def test_parse_and_emit_round_trip():
    for gkm in (gen_s6(), gen_projective(2), gen_grassmannian(2)):
        doc = document_from_gkm(gkm)
        assert parse_gkm(emit_gkm(doc)) == doc


def _dumps_oracle(doc):
    """The text of ``json.dumps(indent=2)``, from the object that ``emit_gkm`` once handed it."""
    obj = {
        "torus_rank": doc.torus_rank,
        "vertices": list(doc.vertices),
        "edges": [
            {"id": e.id, "endpoints": [e.source, e.target], "weight": list(e.weight)}
            for e in doc.edges
        ],
    }
    if doc.connection is not None:
        obj["connection"] = [
            {"dart": dart, "maps": [[a, b] for a, b in images.items()]}
            for dart, images in doc.connection.items()
        ]
    if doc.orderings is not None:
        obj["orderings"] = {v: list(order) for v, order in doc.orderings.items()}
    return json.dumps(obj, indent=2) + "\n"


FAMILIES = (
    [(gen_s6, None)]
    + [(gen_projective, m) for m in range(1, 21)]
    + [(gen_grassmannian, n) for n in range(1, 13)]
)


@pytest.mark.parametrize("gen, size", FAMILIES, ids=[f"{g.__name__[4:]}{s or ''}" for g, s in FAMILIES])
def test_emit_writes_the_json_dumps_text(gen, size):
    doc = document_from_gkm(gen() if size is None else gen(size))
    assert emit_gkm(doc) == _dumps_oracle(doc)


def _tuples(elements):
    return st.lists(elements, max_size=3).map(tuple)


# any code point, lone surrogates included; integers past 64 bits
_TEXT = st.text(st.characters(blacklist_categories=()), max_size=5)
_INTS = st.one_of(st.integers(-3, 3), st.integers(-(2**130), 2**130))
_DOCUMENTS = st.builds(
    GkmDocument,
    _INTS,
    _tuples(_TEXT),
    _tuples(st.builds(EdgeRecord, _TEXT, _TEXT, _TEXT, _tuples(_INTS))),
    st.none() | st.dictionaries(_TEXT, st.dictionaries(_TEXT, _TEXT, max_size=3), max_size=3),
    st.none() | st.dictionaries(_TEXT, _tuples(_TEXT), max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
@example(GkmDocument(1, (), (), None, None))
@example(GkmDocument(-(2**70), (), (), {}, {}))
@example(GkmDocument(2, ("\"\\\x00\ud800é",), (EdgeRecord("\x1f", "a", "b", (2**64,)),), {"d": {}}, {"v": ()}))
def test_emit_writes_the_json_dumps_text_of_any_document(doc):
    assert emit_gkm(doc) == _dumps_oracle(doc)


PIECE_FAMILIES = [(gen_s6, None)] + [(gen, n) for gen in (gen_projective, gen_grassmannian) for n in range(1, 11)]


@pytest.mark.parametrize(
    "gen, size", PIECE_FAMILIES, ids=[f"{g.__name__[4:]}{s or ''}" for g, s in PIECE_FAMILIES]
)
def test_written_pieces_join_to_the_json_dumps_text(gen, size):
    full = document_from_gkm(gen() if size is None else gen(size))
    docs = [
        full,
        full._replace(connection=None),
        full._replace(orderings=None),
        full._replace(connection=None, orderings=None),
        full._replace(edges=()),
    ]
    for doc in docs:
        pieces = list(iter_gkm(doc))
        assert "".join(pieces) == emit_gkm(doc) == _dumps_oracle(doc)
        # one piece per record, never two records in one: the header, each edge
        # and the closing bracket, each section's key, entries and closing
        # bracket, and the closing brace
        expected = 1 + len(doc.edges) + 1 + 1
        for section in (doc.connection, doc.orderings):
            if section is not None:
                expected += 1 + len(section) + 1
        assert len(pieces) == expected


def test_document_reconstructs_the_same_gkm():
    for gkm in (gen_s6(), gen_projective(3), gen_grassmannian(2)):
        rebuilt = gkm_from_document(document_from_gkm(gkm))
        assert rebuilt.graph == gkm.graph
        assert rebuilt.axial == gkm.axial
        assert rebuilt.connection == gkm.connection
    # documents store only forward darts, so a saved graph must pair its
    # darts as X / X~; pinned orderings must survive the trip as well
    rng = random.Random(7)
    for name, gkm in core_fixtures().items():
        g = with_orderings(gkm.graph, shuffled_orderings(rng, gkm.graph))
        shuffled = GkmGraph(g, gkm.axial, gkm.connection)
        assert gkm_from_document(parse_gkm(emit_gkm(document_from_gkm(shuffled)))) == shuffled, name


def test_minimal_document_infers_connection():
    gkm = load_gkm(MINIMAL)
    assert gkm.m == 2
    assert axial_group_basis(gkm).rank == 2


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_gkm("{ not json }")
    assert "line 1" in str(err.value)


def test_weight_arity_mismatch_is_a_schema_error():
    bad = MINIMAL.replace('"weight": [1, 0]', '"weight": [1, 0, 0]')
    with pytest.raises(SchemaError) as err:
        parse_gkm(bad)
    assert "weight" in str(err.value)


def test_missing_field_is_a_schema_error():
    with pytest.raises(SchemaError):
        parse_gkm('{"torus_rank": 2, "vertices": ["p"]}')
    with pytest.raises(SchemaError):
        parse_gkm('{"torus_rank": 2, "vertices": ["p"], "edges": [{"id": "e"}]}')


def test_json_booleans_are_not_integers():
    with pytest.raises(SchemaError) as err:
        parse_gkm(MINIMAL.replace('"torus_rank": 2', '"torus_rank": true'))
    assert "torus_rank" in str(err.value)
    with pytest.raises(SchemaError) as err:
        parse_gkm(MINIMAL.replace('"weight": [1, 0]', '"weight": [true, false]'))
    assert "edges[0].weight" in str(err.value)


def test_oversized_integer_literal_is_a_parse_error():
    huge = MINIMAL.replace('"torus_rank": 2', '"torus_rank": ' + "7" * 5000)
    with pytest.raises(ParseError) as err:
        parse_gkm(huge)
    assert "int-max-str-digits" in str(err.value)


@pytest.mark.parametrize(
    "text",
    ["[" * 100000 + "]" * 100000, '{"a": ' * 100000 + "1" + "}" * 100000],
    ids=["arrays", "objects"],
)
def test_deep_nesting_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_gkm(text)


def test_unknown_vertex_parses_and_is_refused_on_assembly():
    # ids and references are build_graph's to check, not the schema walk's
    doc = parse_gkm(MINIMAL.replace('["p", "q", "r"]', '["p", "q"]'))
    with pytest.raises(GraphError, match="^dart qr references an unknown vertex$"):
        gkm_from_document(doc)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ('"vertices": ["p", "q", "r"]', '"vertices": ["p", "q", "r", "p"]', "duplicate vertex ids"),
        ('"id": "qr"', '"id": "q~r"', "edge id 'q~r' must not contain '~'"),
        ('"id": "qr"', '"id": "pq"', "duplicate edge id 'pq'"),
        ('"edges"', '"orderings": {"s": [], "p": ["pq", "rp~"]}, "edges"', "ordering at unknown vertex s"),
    ],
    ids=["duplicate-vertex", "tilde", "duplicate-edge", "ordering-at-unknown-vertex"],
)
def test_malformed_ids_parse_and_load_raises_graph_error(old, new, message):
    text = MINIMAL.replace(old, new, 1)
    doc = parse_gkm(text)
    for assemble in (lambda: gkm_from_document(doc), lambda: load_gkm(text)):
        with pytest.raises(GraphError) as err:
            assemble()
        assert str(err.value) == message


MALFORMED_PAIRS = [["e2"], ["e2", 3], "e2", ["e2", "e3~", "e1"]]


@pytest.mark.parametrize("pair", MALFORMED_PAIRS)
def test_malformed_connection_pair_is_a_schema_error(pair):
    obj = json.loads(emit_gkm(document_from_gkm(gen_s6())))
    obj["connection"][0]["maps"][1] = pair
    with pytest.raises(SchemaError, match=r"^connection\[0\]\.maps\[1\]: expected a pair of dart ids$"):
        parse_gkm(json.dumps(obj))


@pytest.mark.parametrize("pair", MALFORMED_PAIRS + [None])
def test_a_malformed_pair_after_every_valid_pair_is_named(pair):
    # the decoder reads a map in one pass and, only when a pair fails, reads
    # it again from the start on a fresh map to name that pair
    obj = json.loads(emit_gkm(document_from_gkm(gen_s6())))
    obj["connection"][2]["maps"].append(pair)
    with pytest.raises(SchemaError, match=r"^connection\[2\]\.maps\[3\]: expected a pair of dart ids$"):
        parse_gkm(json.dumps(obj))


def _s6_json():
    return json.loads(emit_gkm(document_from_gkm(gen_s6())))


def test_a_dart_mapped_twice_is_a_schema_error():
    # the dropped pair names a dart that does not exist; keeping the last
    # image would hide it
    obj = _s6_json()
    obj["connection"][0]["maps"].insert(1, ["e2", "nonexistent~"])
    message = r"^connection\[0\]\.maps\[2\]: dart e2 is mapped twice$"
    with pytest.raises(SchemaError, match=message):
        parse_gkm(json.dumps(obj))
    with pytest.raises(SchemaError, match=message):
        load_gkm(json.dumps(obj, indent=2))
    # a repeat of the first pair at the end is named there; a witness read
    # from the half-filled map would name the first pair
    obj = _s6_json()
    maps = obj["connection"][3]["maps"]
    maps.append(list(maps[0]))
    with pytest.raises(SchemaError, match=rf"^connection\[3\]\.maps\[3\]: dart {maps[0][0]} is mapped twice$"):
        parse_gkm(json.dumps(obj))


@pytest.mark.parametrize("entry", [True, False, 0.5, 1.0, "1", None, [1]])
def test_a_weight_entry_that_is_not_an_integer_is_named(entry):
    obj = _s6_json()
    obj["edges"][2]["weight"][-1] = entry
    with pytest.raises(SchemaError, match=r"^edges\[2\]\.weight: expected a list of integers$"):
        parse_gkm(json.dumps(obj))


def test_connection_entry_with_its_keys_reversed_loads():
    obj = _s6_json()
    obj["connection"] = [{"maps": c["maps"], "dart": c["dart"]} for c in obj["connection"]]
    assert parse_gkm(json.dumps(obj)) == document_from_gkm(gen_s6())


def test_duplicate_json_keys_keep_the_last_value():
    text = emit_gkm(document_from_gkm(gen_s6()))
    for prefix in ('"dart": "e2", ', '"maps": [["e1", "e2~"]], ', '"maps": {"e1": "e1~"}, '):
        doubled = text.replace('"dart": "e1",', prefix + '"dart": "e1",', 1)
        assert parse_gkm(doubled) == parse_gkm(text), prefix
    doubled = text.replace('"dart": "e1",', '"dart": "e1", "maps": [], "dart": "e1",', 1)
    assert parse_gkm(doubled) == parse_gkm(text)


# messages taken from a parser that decoded plain lists of pairs and left
# every object a dict; the decoder now reads connection entries and, where
# the place starts with "edge-", edge objects as records
@pytest.mark.parametrize(
    "where, message",
    [
        ("orderings", "orderings.p: expected a list of strings"),
        ("orderings-list", "orderings.p: expected a list of strings"),
        ("orderings-object", "orderings.dart: expected a list of strings"),
        ("edges", "edges[1]: expected fields id, endpoints, weight"),
        ("weight", "edges[1].weight: expected a list of integers"),
        ("top", "$: unknown fields: ['dart', 'maps']"),
        ("pair", "connection[0].maps[0]: expected a pair of dart ids"),
        ("maps", "connection[0].maps: expected a list of pairs"),
        ("edge-top", "$: unknown fields: ['endpoints', 'id', 'weight']"),
        ("edge-connection", "connection[1]: expected fields dart, maps"),
        ("edge-orderings", "orderings.p: expected a list of strings"),
        ("edge-orderings-object", "orderings.id: expected a list of strings"),
        ("edge-maps", "connection[0].maps: expected a list of pairs"),
        ("edge-pair", "connection[0].maps[0]: expected a pair of dart ids"),
    ],
)
def test_an_entry_shaped_object_elsewhere_is_reported_as_before(where, message):
    entry = {"dart": "e1", "maps": [["e1", "e1~"], ["e2", "e3~"], ["e3", "e2~"]]}
    if where.startswith("edge-"):
        entry, where = {"id": "e1", "endpoints": ["p", "q"], "weight": [1, 0]}, where[len("edge-"):]
    obj = _s6_json()
    if where == "orderings":
        obj["orderings"]["p"] = entry
    elif where == "orderings-list":
        obj["orderings"]["p"] = [entry]
    elif where == "orderings-object":
        obj["orderings"] = entry
    elif where == "edges":
        obj["edges"][1] = entry
    elif where == "weight":
        obj["edges"][1]["weight"] = entry
    elif where == "top":
        obj = entry
    elif where == "connection":
        obj["connection"][1] = entry
    elif where == "maps":
        obj["connection"][0]["maps"] = entry
    else:
        obj["connection"][0]["maps"][0] = entry
    with pytest.raises(SchemaError) as err:
        parse_gkm(json.dumps(obj))
    assert str(err.value) == message


def test_an_ordering_object_shaped_like_a_connection_entry_is_read_as_orderings():
    # at vertices named dart and maps the orderings object has the keys of a
    # connection entry; its empty list is an ordering, which assembly refuses
    obj = json.loads(MINIMAL.replace('"p"', '"dart"').replace('"q"', '"maps"'))
    obj["orderings"] = {"dart": ["pq", "rp~"], "maps": []}
    doc = parse_gkm(json.dumps(obj))
    assert doc.orderings == {"dart": ("pq", "rp~"), "maps": ()}
    with pytest.raises(GraphError, match="^ordering at vertex maps is not a permutation of its out-darts$"):
        gkm_from_document(doc)


def test_malformed_connection_entries_are_reported_as_before():
    obj = _s6_json()
    obj["connection"][1]["dart"] = 5
    with pytest.raises(SchemaError, match=r"^connection\[1\]\.dart: expected a string$"):
        parse_gkm(json.dumps(obj))
    obj = _s6_json()
    obj["connection"][1]["maps"] = dict(obj["connection"][1]["maps"])
    with pytest.raises(SchemaError, match=r"^connection\[1\]\.maps: expected a list of pairs$"):
        parse_gkm(json.dumps(obj))
    obj = _s6_json()
    obj["connection"][1]["maps"] = [[f"a{i}", f"b{i}"] for i in range(10)] + [["a10"]]
    with pytest.raises(SchemaError, match=r"^connection\[1\]\.maps\[10\]: expected a pair of dart ids$"):
        parse_gkm(json.dumps(obj))


def test_a_map_out_of_ordering_order_parses_and_emits_byte_for_byte():
    obj = _s6_json()
    obj["connection"][0]["maps"].reverse()
    text = json.dumps(obj, indent=2) + "\n"
    doc = parse_gkm(text)
    assert list(doc.connection["e1"]) == ["e3", "e2", "e1"]
    assert emit_gkm(doc) == text
    assert gkm_from_document(doc).connection == gen_s6().connection


def test_load_peak_memory_stays_near_the_text():
    # each record is decoded as it closes, so neither a second copy of the
    # connection nor a dict per record is ever held: 0.834 times the text on
    # 3.11.7, close under the bound of 0.85, and 0.91 when the schema walk
    # decoded the edges and the wrapper of each entry; Python 3.10, whose dicts
    # keep 24-byte entries, read 0.97 and 1.09 (figures carried from an earlier
    # change, not measured again since)
    text = emit_gkm(document_from_gkm(gen_grassmannian(9)))
    gc.collect()
    tracemalloc.start()
    try:
        load_gkm(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (0.85 if sys.version_info >= (3, 11) else 1.03) * len(text), (peak, len(text))


@pytest.mark.parametrize("fields", ["as written", "reversed"])
def test_every_id_in_a_parsed_document_is_the_string_it_names(fields):
    # the decoder reads records in written field order, the schema walk the
    # others; either way each id is one string, shared with the vertex or dart
    # it names, and no record keeps a list
    obj = json.loads(emit_gkm(document_from_gkm(gen_grassmannian(3))))
    if fields == "reversed":
        obj = json.loads(json.dumps(obj), object_pairs_hook=lambda pairs: dict(reversed(pairs)))
    doc = parse_gkm(json.dumps(obj))
    vertices = {v: v for v in doc.vertices}
    darts = {d: d for d in doc.connection}
    assert len(darts) == 2 * len(doc.edges)
    named = [(vertices, v) for v in doc.orderings]
    for e in doc.edges:
        named += [(darts, e.id), (vertices, e.source), (vertices, e.target)]
        assert type(e.weight) is tuple
    for nabla in doc.connection.values():
        named += [(darts, d) for pair in nabla.items() for d in pair]
    for order in doc.orderings.values():
        assert type(order) is tuple
        named += [(darts, d) for d in order]
    assert all(ids[x] is x for ids, x in named)


def test_loaded_maps_share_one_string_per_dart():
    pinned = document_from_gkm(gen_grassmannian(4))
    for text in (
        emit_gkm(pinned),
        # forward darts only: the reverse maps are inverted from these
        json.dumps({**_s6_json(), "connection": [c for c in _s6_json()["connection"] if c["dart"][-1] != "~"]}),
        # no connection: inference builds the maps from the graph's own ids
        emit_gkm(pinned._replace(connection=None, orderings=None)),
    ):
        gkm = load_gkm(text)
        g = gkm.graph
        ids = {id(x) for nabla in gkm.connection.values() for x in (*nabla, *nabla.values())}
        assert len(ids) == len(g.darts)
        # every dart id and every vertex id is one string wherever the graph holds it
        held = [
            *g.vertices, *g.sources, *g.sources.values(), *g.targets, *g.targets.values(),
            *g.orderings, *(d for order in g.orderings.values() for d in order),
            *gkm.axial.weights, *(x for e, nabla in gkm.connection.items() for x in (e, *nabla, *nabla.values())),
        ]
        assert len({id(x) for x in held}) == len(set(held)) == len(g.vertices) + len(g.darts)


def test_load_restores_the_garbage_collector_state():
    # load_gkm must leave the cyclic collector as it found it, also when the
    # document is rejected
    text = emit_gkm(document_from_gkm(gen_s6()))
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            load_gkm(text)
            assert gc.isenabled() == enabled
            with pytest.raises(ParseError):
                load_gkm("{")
            assert gc.isenabled() == enabled
    finally:
        gc.enable() if was else gc.disable()


def test_partial_connection_completed_by_inversion():
    doc = document_from_gkm(gen_s6())
    forward_only = doc.__class__(
        torus_rank=doc.torus_rank,
        vertices=doc.vertices,
        edges=doc.edges,
        connection={d: images for d, images in doc.connection.items() if not d.endswith("~")},
        orderings=doc.orderings,
    )
    rebuilt = gkm_from_document(forward_only)
    assert rebuilt.connection == gen_s6().connection


def test_connection_missing_both_directions_is_a_schema_error():
    doc = document_from_gkm(gen_s6())
    broken = doc.__class__(
        torus_rank=doc.torus_rank,
        vertices=doc.vertices,
        edges=doc.edges,
        connection=dict(list(doc.connection.items())[:2]),
        orderings=doc.orderings,
    )
    with pytest.raises(SchemaError):
        gkm_from_document(broken)


def test_dot_output_shape():
    dot = emit_dot(gen_grassmannian(2))
    lines = dot.splitlines()
    assert lines[0] == "graph gkm {"
    assert lines[-1] == "}"
    assert sum(1 for ln in lines if ln.endswith('";') and " -- " not in ln) == 6
    assert sum(1 for ln in lines if " -- " in ln) == 12


def test_dot_annotations():
    plain = emit_dot(gen_s6())
    weights = emit_dot(gen_s6(), annotate="weights")
    congruence = emit_dot(gen_s6(), annotate="congruence")
    assert "label" not in plain
    assert 'label="e1: (1, 0)"' in weights
    assert "(-2, 1, 1) / (-2, 1, 1)" in congruence
    # deterministic output
    assert emit_dot(gen_s6(), annotate="congruence") == congruence
    for annotate, text in (("none", plain), ("weights", weights), ("congruence", congruence)):
        assert list(iter_dot(gen_s6(), annotate)) == text.splitlines(keepends=True)
    with pytest.raises(ValueError):
        emit_dot(gen_s6(), annotate="bogus")


def _renamed(obj, names):
    """Every string of a JSON value mapped through ``names`` (keys included)."""
    if isinstance(obj, str):
        return names.get(obj, obj)
    if isinstance(obj, list):
        return [_renamed(x, names) for x in obj]
    if isinstance(obj, dict):
        return {_renamed(k, names): _renamed(v, names) for k, v in obj.items()}
    return obj


def test_dot_escapes_quotes_and_backslashes():
    names = {"p": 'p"x', "q": "q\\y", "e1": 'e"1', "e1~": 'e"1~'}
    doc = _renamed(json.loads(emit_gkm(document_from_gkm(gen_s6()))), names)
    lines = emit_dot(load_gkm(json.dumps(doc)), annotate="weights").splitlines()
    assert lines[:4] == [
        "graph gkm {",
        '  "p\\"x";',
        '  "q\\\\y";',
        '  "p\\"x" -- "q\\\\y" [label="e\\"1: (1, 0)"];',
    ]


class _Pairs(list):
    """A JSON object as its ``[key, value]`` pairs, so that a key may be written twice."""


def _as_pairs(text: str):
    return json.loads(text, object_pairs_hook=lambda pairs: _Pairs([list(p) for p in pairs]))


def _dump(node, indent: str | None) -> str:
    """``node`` as JSON text, a repeated key written as many times as it is held, indented or compact."""
    sep = "," if indent is None else ",\n" + indent
    if type(node) is _Pairs:
        return "{" + sep.join(json.dumps(k) + ": " + _dump(v, indent) for k, v in node) + "}"
    if type(node) is list:
        return "[" + sep.join(_dump(x, indent) for x in node) + "]"
    return json.dumps(node)


def _places(node):
    """Every ``(container, index)`` below ``node``: a list item or an object's ``[key, value]`` pair."""
    out = []
    for i, item in enumerate(node):
        out.append((node, i))
        child = item[1] if type(node) is _Pairs else item
        if type(child) in (list, _Pairs):
            out += _places(child)
    return out


_SCALARS = [0, 1, -1, 2, True, False, None, 1.5, "", "p", "e1", "0-1~", 2**70, [], _Pairs(), ["p"], [[]]]
_ORACLE_TEXTS = [emit_gkm(document_from_gkm(gkm)) for gkm in (gen_s6(), gen_grassmannian(2), gen_projective(2))]


def _outcome(parse, text: str):
    try:
        return "document", parse(text)
    except Exception as exc:  # the type and text of any refusal must agree, not only a GkmError's
        return type(exc).__name__, str(exc)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_parse_agrees_with_the_plain_schema_walk(data):
    # documents mutated from s6, grassmannian(2) and projective(2): items
    # dropped, values swapped for scalars or for nodes from elsewhere
    # (records in another kind's place), fields reversed or written twice, and
    # the text compact or indented; parse_gkm, whose decoder reads records as
    # json.loads closes them, gives the document or the refusal of a plain walk
    text = data.draw(st.sampled_from(_ORACLE_TEXTS), label="document")
    root = _as_pairs(text)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        places = _places(root)
        kind = data.draw(st.sampled_from(["drop", "scalar", "move", "reverse", "repeat", "number"]), label="kind")
        if kind == "number":  # the rank or a weight entry, where bool is not int
            places = [(c, i) for c, i in places if type(c) is list and type(c[i]) is int] or places
            kind = "scalar"
        container, i = data.draw(st.sampled_from(places), label="place")
        is_pair = type(container) is _Pairs
        if kind == "drop":
            del container[i]
        elif kind in ("scalar", "move"):
            if kind == "scalar":
                value = copy.deepcopy(data.draw(st.sampled_from(_SCALARS), label="scalar"))
            else:
                source, j = data.draw(st.sampled_from(places), label="from")
                value = copy.deepcopy(source[j][1] if type(source) is _Pairs else source[j])
            if is_pair:
                container[i] = [container[i][0], value]
            else:
                container[i] = value
        elif kind == "reverse":
            container.reverse()
        else:  # the item again, before or after: a key written twice, or a repeated entry or pair
            value = copy.deepcopy(container[i])
            if is_pair:
                value[1] = copy.deepcopy(data.draw(st.sampled_from(_SCALARS + [container[i][1]]), label="value"))
            container.insert(i + data.draw(st.integers(0, 1), label="after"), value)
    mutated = _dump(root, data.draw(st.sampled_from([None, "  "]), label="indent"))
    if data.draw(st.integers(0, 7), label="truncated") == 7:
        mutated = mutated[: data.draw(st.integers(0, len(mutated)), label="cut")]
    assert _outcome(parse_gkm, mutated) == _outcome(parse_by_schema, mutated)
