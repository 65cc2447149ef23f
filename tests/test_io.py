import gc
import json

import pytest

from gkmgraph import (
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


def test_document_reconstructs_the_same_gkm():
    for gkm in (gen_s6(), gen_projective(3), gen_grassmannian(2)):
        rebuilt = gkm_from_document(document_from_gkm(gkm))
        assert rebuilt.graph == gkm.graph
        assert rebuilt.axial == gkm.axial
        assert rebuilt.connection == gkm.connection


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


def test_unknown_vertex_is_a_schema_error():
    bad = MINIMAL.replace('["p", "q", "r"]', '["p", "q"]')
    with pytest.raises(SchemaError):
        parse_gkm(bad)


@pytest.mark.parametrize("pair", [["e2"], ["e2", 3], "e2", ["e2", "e3~", "e1"]])
def test_malformed_connection_pair_is_a_schema_error(pair):
    obj = json.loads(emit_gkm(document_from_gkm(gen_s6())))
    obj["connection"][0]["maps"][1] = pair
    with pytest.raises(SchemaError, match=r"^connection\[0\]\.maps\[1\]: expected a pair of dart ids$"):
        parse_gkm(json.dumps(obj))


def test_load_restores_the_garbage_collector_state():
    # load_gkm pauses the cyclic collector; it must leave it as it found it,
    # also when the document is rejected
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
        connection=tuple(c for c in doc.connection if not c.dart.endswith("~")),
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
        connection=doc.connection[:2],
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
