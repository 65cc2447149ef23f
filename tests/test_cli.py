import argparse
import contextlib
import copy
import gc
import hashlib
import io
import json
import os
import random
import sys
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmgraph import (
    EdgeRecord,
    GkmDocument,
    GkmError,
    IntegerMatrix,
    document_from_gkm,
    emit_gkm,
    gen_grassmannian,
    gen_projective,
    gen_s6,
    gkm_from_document,
    infer_connection,
    load_gkm,
    parse_gkm,
    project_axial,
    validate_axial,
    validate_gkm,
)
import gkmgraph.io
from gkmgraph import cli
from gkmgraph.cli import main
from gkmgraph.io import labels_from_document
from gkmgraph.writer import iter_gkm
from helpers import TWISTED_S6, bent_documents, long_cycle, main_outcome, validation_checking_every_vertex


@pytest.fixture
def s6_file(tmp_path):
    path = tmp_path / "s6.json"
    assert main(["gen", "s6", "-o", str(path)]) == 0
    return str(path)


def test_gen_writes_a_parseable_document(s6_file, capsys):
    data = json.loads(Path(s6_file).read_text())
    assert data["torus_rank"] == 2
    assert len(data["edges"]) == 3
    assert main(["gen", "projective", "--m", "2"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["torus_rank"] == 2


# sha256 of the file `gkmgraph gen` writes, taken from json.dumps(indent=2)
# text, which emit_gkm must reproduce byte for byte
GEN_DOCUMENTS = {
    ("s6",): "d5157740a354e443e05943828e9e5112fa3d1a8cdfa88da9a3ddea361b8488bb",
    ("projective", "--m", "5"): "0c435105fc45051ececac664c1ce4d29cf767ce2f60cbda4527c433b90514557",
    ("projective", "--m", "8"): "94fe2e41f7ae9480ff68a72e7b1b95428d17954d568b89a67d09c94428961196",
    ("projective", "--m", "12"): "66aa0ad4482531fed81521447dc16d26303305a7848f132d7dd43e1fbb1a4c10",
    ("projective", "--m", "16"): "ea3948593ee31cd760678977708c1b3020635ce964bc3d00b18475bb90c54153",
    ("projective", "--m", "20"): "d85a6297a395b3bc1143c12be8faaa060b38d59ccb9721e56a8433e9cf846db8",
    ("grassmannian", "--n", "1"): "cd009a83887a3be93627f9d7eae5c6704525b25ee45ca3c6bbae0cf809d44752",
    ("grassmannian", "--n", "2"): "b05e2c1db108aa7b88bc1ebcab362212e769aca3add0ac233e5992a65e3a3aff",
    ("grassmannian", "--n", "3"): "71c7d29dc5675a9e3138738b9b87d68a67d723da316e70eb5ecc3f467749d4f1",
    ("grassmannian", "--n", "4"): "efe9d4ea36433f20c6034a635561b6784d0420a4d57074bd82ad162f51e82a0e",
    ("grassmannian", "--n", "6"): "9f88e69b2ecd1fb0d9a91f0eefed48de1f464d02bf72cf7585efb14f68f412e6",
    ("grassmannian", "--n", "9"): "21866f44c72f6dfff8d83866b2803595b21a81ec090e8e0c32af7f4bc57bb7e9",
    ("grassmannian", "--n", "12"): "ada28fc49314ddce6aa7c486f656ea15cea0602ae13cf93061ecab5a2fdd7e20",
}


@pytest.mark.parametrize("spec", GEN_DOCUMENTS, ids=lambda spec: "".join(spec[::2]))
def test_gen_writes_the_pinned_document(spec, tmp_path):
    path = tmp_path / "out.json"
    assert main(["gen", *spec, "-o", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GEN_DOCUMENTS[spec]


def test_writing_a_document_never_holds_its_text(tmp_path):
    # the pieces go to the file one by one, so the peak is one piece and the
    # writer's quoted ids, not the text: 4.1 times the text when it was joined
    doc = document_from_gkm(gen_grassmannian(9))
    text = emit_gkm(doc)
    path = tmp_path / "grassmannian9.json"
    gc.collect()
    tracemalloc.start()
    try:
        cli._write_output(iter_gkm(doc), str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(text) / 4, (peak, len(text))
    assert path.read_text(encoding="utf-8") == text


def test_rank_basis_peak_memory_stays_below_a_multiple_of_the_text(tmp_path):
    # a compact grassmannian(9) with short ids, as the benchmark writes it:
    # 3.16 times the text on Python 3.11, 3.42 when the basis took the wide
    # HNF of the expanded rows, and 3.81 when parsing kept a dict per record,
    # with or without that HNF; Python 3.10, whose dicts keep 24-byte
    # entries, reads 3.72, 3.99 and 4.76
    text = json.dumps(json.loads(emit_gkm(shuffled_document(gen_grassmannian(9), 1))))
    path = tmp_path / "grassmannian9.json"
    path.write_text(text, encoding="utf-8")
    argv = ["rank", "--basis", str(path)]
    with open(os.devnull, "w", encoding="utf-8") as null, contextlib.redirect_stdout(null):
        assert main(argv) == 0  # imports and argparse's compiled patterns stay out of the peak
        gc.collect()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < (3.3 if sys.version_info >= (3, 11) else 3.85) * len(text), (peak, len(text))


def test_each_command_frees_the_text_before_assembly(s6_file, tmp_path, monkeypatch):
    # parse_gkm drops the text once json.loads has decoded it, and the command
    # passes the text on without holding it, so assembly and validation run
    # without the text of the document they read
    class Text(str):
        pass

    texts, alive = [], []
    read, assemble = cli._read, gkmgraph.io.gkm_from_document

    def reading(path):
        text = Text(read(path))
        texts.append(weakref.ref(text))
        return text

    def assembling(doc):
        alive.append(texts[-1]() is not None)
        return assemble(doc)

    monkeypatch.setattr(cli, "_read", reading)
    monkeypatch.setattr(cli, "gkm_from_document", assembling)
    monkeypatch.setattr(gkmgraph.io, "gkm_from_document", assembling)
    out = str(tmp_path / "out.json")
    for argv in (
        ["rank", s6_file],
        ["invariant", s6_file],
        ["dot", s6_file, "-o", out],
        ["extend", s6_file, "--target", "2", "-o", out],
        ["project", s6_file, "--matrix", "1 0; 0 1", "-o", out],
        ["check-extension", s6_file, out],
        ["validate", s6_file],
        ["connection", s6_file],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    assert alive == [False] * 9


def shuffled_document(gkm, seed: int) -> GkmDocument:
    """``gkm`` pinned, its vertex and edge ids renamed and its lists shuffled by ``seed``."""
    rng = random.Random(seed)
    doc = document_from_gkm(gkm)
    names = rng.sample(range(len(doc.vertices)), len(doc.vertices))
    vertices = {v: f"v{k:03d}" for v, k in zip(doc.vertices, names)}
    ids = rng.sample(range(len(doc.edges)), len(doc.edges))
    edge_ids = {e.id: f"e{i:03d}" for i, e in zip(ids, doc.edges)}
    edges = [EdgeRecord(edge_ids[e.id], vertices[e.source], vertices[e.target], e.weight) for e in doc.edges]
    new_vertices = rng.sample(sorted(vertices.values()), len(vertices))
    edges = rng.sample(edges, len(edges))

    def dart(d):
        return edge_ids[d[:-1]] + "~" if d.endswith("~") else edge_ids[d]

    connection = [(dart(d), {dart(a): dart(b) for a, b in images.items()}) for d, images in doc.connection.items()]
    orderings = {vertices[v]: tuple(map(dart, order)) for v, order in doc.orderings.items()}
    return GkmDocument(
        doc.torus_rank, tuple(new_vertices), tuple(edges), dict(rng.sample(connection, len(connection))), orderings
    )


def shuffled_free_document(gkm, seed: int) -> GkmDocument:
    """``gkm`` with no connection or orderings, its vertex and edge ids renamed and shuffled by ``seed``."""
    return shuffled_document(gkm, seed)._replace(connection=None, orderings=None)


def axiom_2_corrupted(doc: GkmDocument, seed: int) -> GkmDocument:
    """``doc`` with one out-dart at a vertex given the weight of another out-dart there."""
    rng = random.Random(seed)
    vertex = rng.choice(doc.vertices)
    i, j = rng.sample([k for k, e in enumerate(doc.edges) if vertex in (e.source, e.target)], 2)

    def sign(e):
        return 1 if e.source == vertex else -1

    weight = tuple(sign(doc.edges[i]) * sign(doc.edges[j]) * x for x in doc.edges[j].weight)
    edges = list(doc.edges)
    edges[i] = edges[i]._replace(weight=weight)
    return doc._replace(edges=tuple(edges))


INFERRING_DOCUMENTS = {
    "projective5": lambda: shuffled_free_document(gen_projective(5), 7),
    "grassmannian3": lambda: shuffled_free_document(gen_grassmannian(3), 8),
    "projective5-corrupted": lambda: axiom_2_corrupted(shuffled_free_document(gen_projective(5), 7), 9),
    "grassmannian3-corrupted": lambda: axiom_2_corrupted(shuffled_free_document(gen_grassmannian(3), 8), 10),
}

# sha256 and exit code of the stdout of each command that infers the
# connection, on connection-free documents with shuffled ids; on the
# corrupted copies, validate's `connection: none (…)` line names the first
# dart across which inference fails
INFERRING_OUTPUTS = {
    ("projective5", "validate"): ("3bf9e270ec484ea2ed9b2859dba5a44d40a9e944dd69092c2edad9183bddce17", 0),
    ("projective5", "connection"): ("b8fbb93188e5e1545ac6df7d361efad2ad90be07b22b14ee3f37314b531200e1", 0),
    ("projective5", "invariant"): ("f7c5381695c06f70fd05222c6838abaff656e838c68f122215c9421debdb4ce6", 0),
    ("projective5", "dot"): ("ac8e886b4ebfa0ea84fc6fc686e6eb72c0422dee4d5a3bd9bb0fe020a561df41", 0),
    ("grassmannian3", "validate"): ("3bf9e270ec484ea2ed9b2859dba5a44d40a9e944dd69092c2edad9183bddce17", 0),
    ("grassmannian3", "connection"): ("4e622fbac4fbeb32b4dcf1ac442ae1aee234e2e9584b132326d2bd266a38c934", 0),
    ("grassmannian3", "invariant"): ("3029aa329254917eff70a9588f5c532ba7f39f950893dea46eb7a6f0bf572944", 0),
    ("grassmannian3", "dot"): ("bfb35c9406fbde9a62c2158c166be46e6fa1372af038ba19095efc2263a59a6b", 0),
    ("projective5-corrupted", "validate"): ("bd85d5668df0feaac12fa17e395235cb927067ea416a9189cf638ec9737b92ca", 1),
    ("grassmannian3-corrupted", "validate"): ("22bc880f96cf8c30d67eb97183cf24b7b071490a0bb0aa799bd39c3cba9e0317", 1),
}


@pytest.mark.parametrize("case", INFERRING_OUTPUTS, ids="-".join)
def test_inferring_commands_print_the_pinned_output(case, tmp_path, capsys):
    document, command = case
    path = tmp_path / "doc.json"
    path.write_text(emit_gkm(INFERRING_DOCUMENTS[document]()))
    code = main([command, str(path)] + (["--annotate", "congruence"] if command == "dot" else []))
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == INFERRING_OUTPUTS[case]
    if document.endswith("corrupted"):
        assert out.startswith("connection: none (")


def test_validate_ok(s6_file, capsys):
    assert main(["validate", s6_file]) == 0
    out = capsys.readouterr().out
    assert "axiom 1" in out and "pass" in out


def test_validate_failure_exits_1(tmp_path, capsys):
    doc = {
        "torus_rank": 2,
        "vertices": ["p", "q"],
        "edges": [
            {"id": "e1", "endpoints": ["p", "q"], "weight": [1, 0]},
            {"id": "e2", "endpoints": ["p", "q"], "weight": [2, 0]},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_validate_reports_axiom_3_of_an_inferred_connection_as_checked(tmp_path, capsys):
    # validate checks axiom 3 on a connection it inferred, as on a pinned one;
    # its report is the full check, on fixtures and on bent weights
    rng = random.Random(31)
    docs = []
    for gkm in (gen_s6(), gen_projective(4), gen_grassmannian(3)):
        docs += [document_from_gkm(gkm)._replace(connection=None)] + bent_documents(rng, gkm, 40)
    path = tmp_path / "doc.json"
    inferred = failing = 0
    for doc in docs:
        path.write_text(emit_gkm(doc))
        code = main(["validate", str(path)])
        out = capsys.readouterr().out
        graph, axial = labels_from_document(doc)
        try:
            report = validate_axial(graph, axial, infer_connection(graph, axial))
        except GkmError:
            continue
        inferred += 1
        failing += not report.ok
        assert out == "connection: inferred from the weights\n" + report.summary() + "\n"
        assert code == (0 if report.ok else 1)
    assert inferred > 10 and failing > 5, (inferred, failing)


def test_validate_checks_axiom_3_of_an_inferred_connection(tmp_path, monkeypatch, capsys):
    # the report of a connection-free document is the validation of the graph
    # with the inferred connection: one dart of each edge is divided in full
    from collections import Counter

    from gkmgraph import axial

    checked = Counter()
    check = axial._check_dart

    def counting(graph, maps, e, *rest):
        checked[min(e, graph.reverse(e))] += 1
        return check(graph, maps, e, *rest)

    monkeypatch.setattr(axial, "_check_dart", counting)
    for gkm in (gen_s6(), gen_projective(4), gen_grassmannian(3)):
        path = tmp_path / "doc.json"
        path.write_text(emit_gkm(document_from_gkm(gkm)._replace(connection=None)))
        checked.clear()
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out.startswith("connection: inferred from the weights\n")
        assert checked == dict.fromkeys(gkm.graph.edge_representatives(), 1)


def test_connection_and_invariant(s6_file, capsys):
    assert main(["connection", s6_file]) == 0
    out = capsys.readouterr().out
    assert "e1: e1->e1~, e2->e3~, e3->e2~" in out
    assert main(["invariant", s6_file]) == 0
    out = capsys.readouterr().out
    assert "e1: (-2, 1, 1)" in out


def test_rank_output(s6_file, capsys):
    assert main(["rank", s6_file, "--basis"]) == 0
    out = capsys.readouterr().out
    assert "rank: 2" in out
    assert "no effective torus of dimension > 2" in out
    assert "f1:" in out
    assert main(["rank", s6_file, "--method", "full"]) == 0
    assert "rank: 2" in capsys.readouterr().out


def _folded(gkm, v):
    """``gkm`` projected by ``[I | v]``, which keeps the solution lattice and lowers ``n`` by one."""
    rows = [[int(c == i) for c in range(len(v))] + [x] for i, x in enumerate(v)]
    return project_axial(gkm, IntegerMatrix.from_rows(rows, len(v) + 1))


RANK_DOCUMENTS = {
    "s6": lambda: shuffled_document(gen_s6(), 11),
    "projective5": lambda: shuffled_document(gen_projective(5), 12),
    "grassmannian3": lambda: shuffled_document(gen_grassmannian(3), 13),
    "projective5-folded": lambda: shuffled_document(_folded(gen_projective(5), (1, 2, -1, 1)), 14),
    "grassmannian3-folded": lambda: shuffled_document(_folded(gen_grassmannian(3), (1, 2, -1)), 15),
}

# sha256 and exit code of the stdout of `rank --basis` under each method, on
# pinned documents with shuffled ids; the folded ones print more elements
# than they have weight coordinates
RANK_OUTPUTS = {
    ("s6", "propagate"): ("857bc326babb58ad653adf7272a2c6f834b0939dea51697f0879ffcadbe61efb", 0),
    ("s6", "full"): ("857bc326babb58ad653adf7272a2c6f834b0939dea51697f0879ffcadbe61efb", 0),
    ("projective5", "propagate"): ("2466dd307c46b353e1b838b9f1929ef3a8e6df276829c5a1eae639bf040893d3", 0),
    ("projective5", "full"): ("2466dd307c46b353e1b838b9f1929ef3a8e6df276829c5a1eae639bf040893d3", 0),
    ("grassmannian3", "propagate"): ("1037e8986207a55802c824ebabf4124ce67521ae6ede7ed959876ca2bc16af31", 0),
    ("grassmannian3", "full"): ("1037e8986207a55802c824ebabf4124ce67521ae6ede7ed959876ca2bc16af31", 0),
    ("projective5-folded", "propagate"): ("45c677b52ec33edd430c8eb222ae473b16459be442ce325ee7505c1b1f3ceb1a", 0),
    ("projective5-folded", "full"): ("45c677b52ec33edd430c8eb222ae473b16459be442ce325ee7505c1b1f3ceb1a", 0),
    ("grassmannian3-folded", "propagate"): ("1af0d931b02946ccbac90d865e169b8492c9307cf3bc45656aa580c43a37d704", 0),
    ("grassmannian3-folded", "full"): ("1af0d931b02946ccbac90d865e169b8492c9307cf3bc45656aa580c43a37d704", 0),
}


@pytest.mark.parametrize("case", RANK_OUTPUTS, ids="-".join)
def test_rank_basis_prints_the_pinned_output(case, tmp_path, capsys):
    document, method = case
    path = tmp_path / "doc.json"
    path.write_text(emit_gkm(RANK_DOCUMENTS[document]()))
    code = main(["rank", str(path), "--basis", "--method", method])
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == RANK_OUTPUTS[case]


def test_rank_basis_carries_along_a_tree_thousands_deep(tmp_path, capsys):
    # the breadth-first tree of the 4000-cycle is 2000 deep, past the
    # interpreter's recursion limit: the transport walks it in a loop
    gkm = long_cycle()
    assert validate_gkm(gkm).checked == (1, 2, 3, 4) and validate_gkm(gkm).ok
    path = tmp_path / "cycle.json"
    path.write_text(emit_gkm(document_from_gkm(gkm)))
    assert main(["rank", str(path), "--basis"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("rank: 2\n")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "b150caf2f354ff774ce7b52a1ad307bd08028bb38d6ec2fcc9b4caf1aceb7430"


def test_rank_refuses_a_connection_not_sending_each_dart_to_its_reverse(tmp_path, capsys):
    # the twisted s6 fails axioms 2 and 3: both methods refuse it on load,
    # with the first failure on one error: line
    path = tmp_path / "twisted.json"
    path.write_text(TWISTED_S6)
    for method in ("propagate", "full"):
        assert main(["rank", str(path), "--basis", "--method", method]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: axiom 2 fails at vertex p: darts e1 and e2 carry dependent weights (witness 1 of 8)\n"
        )


@pytest.mark.parametrize("command", ["rank", "validate", "invariant"])
def test_a_dart_mapped_twice_is_an_error(command, tmp_path, capsys):
    obj = json.loads(emit_gkm(document_from_gkm(gen_s6())))
    obj["connection"][0]["maps"].insert(1, ["e2", "nonexistent~"])
    path = tmp_path / "s6.json"
    path.write_text(json.dumps(obj, indent=2))
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: connection[0].maps[2]: dart e2 is mapped twice\n"


def test_extend_and_check_extension(tmp_path, capsys):
    base = tmp_path / "proj.json"
    projected = tmp_path / "projected.json"
    extended = tmp_path / "extended.json"
    assert main(["gen", "projective", "--m", "3", "-o", str(base)]) == 0
    assert main(["project", str(base), "--matrix", "1 0 1; 0 1 1", "-o", str(projected)]) == 0
    assert main(["extend", str(projected), "--target", "3", "-o", str(extended)]) == 0
    assert main(["check-extension", str(projected), str(extended)]) == 0
    out = capsys.readouterr().out
    assert "extension: yes" in out
    # the other direction cannot project a rank-2 labeling onto rank 3
    assert main(["check-extension", str(extended), str(projected)]) == 1


# the round trip of the extend-roundtrip benchmark on fixture F, folded by
# [I | v]: sha256 of the document `extend --target n` writes, and of the
# stdout of `check-extension projected extended` ([I | 0]) and of
# `check-extension projected original` ([I | v]); every command exits 0
ROUND_TRIPS = {
    ("projective", 8, (1, 1, -1, 1, 2, -2, 1)): (
        "7ef7ece28f156fae367b5f7e719c7639e0eed97a1874e6e66e9543fff965854b",
        "bbce122082150171385e5d14a66ac4fc6d1e26b3cbb14a684ccd53c44f5a4f28",
        "7dc913f87aece838264b738193cf2d3e0558ce5bcb43cc42af0e8b12a304bd09",
    ),
    ("projective", 8, (-2, 3, -1, 1, -2, -1, -2)): (
        "cb5548feadace14b1ef0ecb783b37b281dc19ae79e31b830f1d8b395d8ce2053",
        "bbce122082150171385e5d14a66ac4fc6d1e26b3cbb14a684ccd53c44f5a4f28",
        "5a981df490243392ad1249b8c6c60f12585faff4f22efc39117299f4002e780a",
    ),
    ("projective", 12, (3, -2, 3, 2, 3, -2, 3, 2, 1, -2, 2)): (
        "9d4214950f1068678c5f7346927670df5cc774e25d7b0bf0cb322cbe6034d694",
        "23143159090031632771000cd09713103111c40f1cf78dae10d7be9f811d949b",
        "0a08025223bd4bd07d0da58206548322c2444436bd3cadb22e12702e0c4cd32a",
    ),
    ("projective", 12, (2, 2, -1, 3, -1, 2, -2, -2, 1, 3, -2)): (
        "ff6a5ba0209f6910b732b4daa16d36dc312f0b1fa278b9ed9315d2d4fc432359",
        "23143159090031632771000cd09713103111c40f1cf78dae10d7be9f811d949b",
        "7f89110d5bbd2c17aeef1665524ddb9028bde349cef2700bde1e5e34a72a7014",
    ),
    ("projective", 16, (3, -2, -2, 2, -1, 1, 2, 3, 2, 1, 1, 1, -1, -2, 1)): (
        "fb3447b1b9a1e434ca57d2f9a3a0f0207261234efb929a8e4ec8da83280c9750",
        "af43cfb0093e53818a2f426dc55dd394abcca71c34e2dc16d2d0ad6d36290a98",
        "926fb771589a2d47a7920b5dc844d0cf68e442cab5264b492bea453b60413f30",
    ),
    ("projective", 16, (-2, -2, 3, 3, 2, -1, 2, 3, -1, -2, -1, 3, -1, 2, 2)): (
        "52ddf1cd5adf0406637d6d2d5723341bb405706bc7d873b80acdc423cda4d960",
        "af43cfb0093e53818a2f426dc55dd394abcca71c34e2dc16d2d0ad6d36290a98",
        "017ee6ca26f2a8efe8a39cdd15487f1396c64456c7059bb9b2f2202448e3dbe2",
    ),
    ("grassmannian", 4, (1, 2, 1, 1)): (
        "9a0f69fd64aa04009fe27c1759a23705415521e13b9896aa86084a2e1fa8b7e6",
        "8cda39d57bc7ef497b8a5f89c71dcd590310a3a4aae96dc7f910f36c6201dd77",
        "86b788e2b280d8e89f053b83d88e829fa4a98d26600473ae45d4231965702fc4",
    ),
    ("grassmannian", 4, (1, 2, -1, 2)): (
        "9f8f2928c2ae3ed1c3400a48336d52eb837e0ed497f83c2f7d9b82ebd2c22365",
        "8cda39d57bc7ef497b8a5f89c71dcd590310a3a4aae96dc7f910f36c6201dd77",
        "8e9f141634732681f29cca005dd1786773b676648e5e23f4b7e1ee0e08da7b95",
    ),
}


@pytest.mark.parametrize("case", ROUND_TRIPS, ids=lambda c: f"{c[0]}{c[1]}-{c[2][0]}{c[2][1]}")
def test_round_trip_writes_and_prints_the_pinned_output(case, tmp_path, capsys):
    family, size, v = case
    original, projected, extended = (tmp_path / f"{name}.json" for name in ("original", "projected", "extended"))
    assert main(["gen", family, "--m" if family == "projective" else "--n", str(size), "-o", str(original)]) == 0
    n = len(v) + 1
    matrix = "; ".join(" ".join(str(int(c == i)) for c in range(n - 1)) + f" {x}" for i, x in enumerate(v))
    assert main(["project", str(original), "--matrix", matrix, "-o", str(projected)]) == 0
    assert main(["extend", str(projected), "--target", str(n), "-o", str(extended)]) == 0
    capsys.readouterr()
    outs = []
    for candidate in (extended, original):
        assert main(["check-extension", str(projected), str(candidate)]) == 0
        outs.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert (hashlib.sha256(extended.read_bytes()).hexdigest(), *outs) == ROUND_TRIPS[case]


def test_check_extension_rejects_a_candidate_failing_the_axioms(tmp_path, capsys):
    base = gen_projective(3)
    padded = base.with_weights({d: w + (0,) for d, w in base.axial.weights.items()}, 4)
    base_path, padded_path = tmp_path / "base.json", tmp_path / "padded.json"
    base_path.write_text(emit_gkm(document_from_gkm(base)))
    padded_path.write_text(emit_gkm(document_from_gkm(padded)))
    assert main(["check-extension", str(base_path), str(padded_path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("extension: no (axiom 4 fails at vertex ")
    assert len(out.splitlines()) == 1


def test_check_extension_refuses_a_base_failing_the_axioms(tmp_path, capsys):
    base = gen_projective(3)
    doubled = base.with_weights({d: tuple(2 * x for x in w) for d, w in base.axial.weights.items()}, base.n)
    base_path, doubled_path = tmp_path / "base.json", tmp_path / "doubled.json"
    base_path.write_text(emit_gkm(document_from_gkm(base)))
    doubled_path.write_text(emit_gkm(document_from_gkm(doubled)))
    assert main(["check-extension", str(doubled_path), str(base_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: axiom 4 fails at vertex 0: weights do not span the integer lattice (witness 1 of 4)\n"


def test_extend_beyond_rank_fails(s6_file, tmp_path, capsys):
    out_path = tmp_path / "never.json"
    assert main(["extend", s6_file, "--target", "3", "-o", str(out_path)]) == 1
    err = capsys.readouterr().err
    assert "rank" in err
    assert not out_path.exists()


def test_extend_of_a_labeling_failing_axiom_4_names_the_axiom(tmp_path, capsys):
    doc = json.loads(emit_gkm(document_from_gkm(gen_projective(3))))
    for edge in doc["edges"]:
        edge["weight"] = [2 * x for x in edge["weight"]]
    path, out_path = tmp_path / "doubled.json", tmp_path / "never.json"
    path.write_text(json.dumps(doc))
    assert main(["extend", str(path), "--target", "3", "-o", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: axiom 4 fails at vertex 0: weights do not span")
    assert len(captured.err.splitlines()) == 1
    assert not out_path.exists()


def test_project_rejects_non_surjection(s6_file, tmp_path, capsys):
    assert main(["project", s6_file, "--matrix", "2 0; 0 1", "-o", str(tmp_path / "x.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_dot_command(s6_file, capsys):
    assert main(["dot", s6_file, "--annotate", "congruence"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph gkm {")
    assert "(-2, 1, 1)" in out


def test_missing_file_is_an_error(capsys):
    assert main(["rank", "/nonexistent/file.json"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["rank"])  # missing file argument
    assert exc.value.code == 2


# argvs over every way main can end; S6 stands for a pinned s6 document
PARSER_CORPUS = [
    ["validate", "S6"],
    ["connection", "S6"],
    ["invariant", "S6"],
    ["rank", "S6", "--basis"],
    ["rank", "S6", "--method", "full"],
    ["extend", "S6", "--target", "2", "-o", "-"],
    ["project", "S6", "--matrix", "1 0; 0 1", "-o", "-"],
    ["check-extension", "S6", "S6"],
    ["gen", "s6"],
    ["gen", "projective", "--m", "2"],
    ["gen", "grassmannian", "--n", "2"],
    ["dot", "S6", "--annotate", "weights"],
    ["validate", "/nonexistent/file.json"],
    [],
    ["-h"],
    ["--help"],
    ["rank", "-h"],
    ["gen", "-h"],
    ["gen", "s6", "-h"],
    ["frobnicate", "S6"],
    ["--verbose", "rank", "S6"],
    ["rank"],
    ["extend", "S6"],
    ["check-extension", "S6"],
    ["gen"],
    ["gen", "projective"],
    ["gen", "cube"],
    ["rank", "S6", "--method", "fast"],
    ["dot", "S6", "--annotate", "all"],
    ["extend", "S6", "--target", "two", "-o", "-"],
    ["gen", "projective", "--m", "2.5"],
    ["rank", "S6", "extra"],
    ["gen", "s6", "extra"],
]


@pytest.mark.parametrize("columns", ["80", "30"])
@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=lambda argv: " ".join(argv) or "(none)")
def test_one_command_parser_prints_what_the_full_parser_prints(argv, columns, s6_file, monkeypatch):
    # main builds the sub-parser of argv[0] alone; usage lines wrap at COLUMNS
    monkeypatch.setenv("COLUMNS", columns)
    argv = [s6_file if a == "S6" else a for a in argv]
    one = main_outcome(argv)
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command: build(None))
    assert main_outcome(argv) == one


def test_a_command_builds_its_own_sub_parser_only():
    def commands(parser):
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return list(sub.choices)

    assert commands(cli._build_parser("rank")) == ["rank"]
    assert commands(cli._build_parser("-h")) == commands(cli._build_parser(None)) == list(cli._COMMANDS)


def test_connection_map_missing_a_pair_is_a_one_line_error(s6_file, capsys):
    doc = json.loads(Path(s6_file).read_text())
    entry = doc["connection"][0]
    entry["maps"] = entry["maps"][1:]
    with open(s6_file, "w") as fh:
        json.dump(doc, fh)
    assert main(["rank", s6_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0] == (
        f"error: axiom 3 fails at dart {entry['dart']}: map is not a bijection between the out-dart sets "
        "(witness 1 of 2)"
    )


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "projective", "--m", "0"],
        ["gen", "grassmannian", "--n", "0"],
        ["gen", "projective", "--m", "99999999999999999999999"],
        ["gen", "grassmannian", "--n", "99999999999999999999"],
        ["extend", "{s6}", "--target", "1", "-o", "{out}"],
        ["project", "{p3}", "--matrix", "1 0 0 0", "-o", "{out}"],
        ["rank", "{latin1}"],
        ["rank", "{deep}"],
        ["extend", "{s6}", "--target", "2", "-o", "{missing}"],
        ["project", "{s6}", "--matrix", "1 0", "-o", "{out}"],
        ["rank", "{newline}"],
        ["project", "{s6}", "--matrix", "2 0; 0 1", "-o", "{out}"],
        ["rank", "{array}"],
        ["rank", "{tilde}"],
        ["rank", "{connection_object}"],
        ["rank", "{orderings_list}"],
        ["rank", "{ordering_unknown}"],
        ["validate", "{lonely}"],
        ["rank", "{duplicate_vertex}"],
        ["validate", "{duplicate_edge}"],
        ["rank", "{unknown_endpoint}"],
        ["project", "{s6}", "--matrix", "1 0; 1", "-o", "{out}"],
        ["project", "{s6}", "--matrix", ";", "-o", "{out}"],
        ["project", "{s6}", "--matrix", "1 x", "-o", "{out}"],
        ["project", "{s6}", "--matrix", "9" * 4300 + " 1; 1 0", "-o", "{out}"],
        ["project", "{s6}", "--matrix", "9" * 4300 + " 1; 1 0", "-o", "-"],
    ],
    ids=[
        "projective-m-0",
        "grassmannian-n-0",
        "projective-m-past-an-index",
        "grassmannian-n-past-an-index",
        "extend-target-below-n",
        "project-wrong-width",
        "not-utf-8",
        "deep-nesting",
        "output-dir-missing",
        "project-breaks-the-axioms",
        "line-break-in-an-id",
        "project-not-onto",
        "top-level-array",
        "tilde-in-an-edge-id",
        "connection-not-a-list",
        "orderings-not-an-object",
        "ordering-at-an-unknown-vertex",
        "one-vertex-no-edges",
        "duplicate-vertex-ids",
        "duplicate-edge-id",
        "unknown-endpoint",
        "project-ragged-matrix",
        "project-empty-matrix",
        "project-matrix-not-integers",
        "project-weights-past-the-digit-limit",
        "project-weights-past-the-digit-limit-to-stdout",
    ],
)
def test_rejected_inputs_are_one_line_errors(args, s6_file, tmp_path, capsys):
    p3 = tmp_path / "p3.json"
    assert main(["gen", "projective", "--m", "3", "-o", str(p3)]) == 0
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"vertices": ["é"]}'.encode("latin-1"))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    out = tmp_path / "out.json"
    capsys.readouterr()
    missing = tmp_path / "no-such-dir" / "x.json"
    doc = json.loads(Path(s6_file).read_text())
    doc["connection"][0]["dart"] = "a\nb"
    newline = tmp_path / "newline.json"
    newline.write_text(json.dumps(doc))
    paths = {"s6": s6_file, "p3": p3, "latin1": latin1, "deep": deep, "out": out, "missing": missing, "newline": newline}
    s6 = json.loads(Path(s6_file).read_text())
    for name, malformed in {
        "array": [s6],
        "tilde": {**s6, "edges": [{**s6["edges"][0], "id": "e~1"}, *s6["edges"][1:]]},
        "connection_object": {**s6, "connection": {}},
        "orderings_list": {**s6, "orderings": []},
        "ordering_unknown": {**s6, "orderings": {"r": [], **s6["orderings"]}},
        "lonely": {"torus_rank": 1, "vertices": ["p"], "edges": []},
        "duplicate_vertex": {**s6, "vertices": [*s6["vertices"], s6["vertices"][0]]},
        "duplicate_edge": {
            **s6, "edges": [s6["edges"][0], {**s6["edges"][1], "id": s6["edges"][0]["id"]}, *s6["edges"][2:]]
        },
        "unknown_endpoint": {**s6, "edges": [{**s6["edges"][0], "endpoints": ["p", "r"]}, *s6["edges"][1:]]},
    }.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(malformed))
    assert main([a.format(**paths) for a in args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    assert not out.exists()


def _fixture_documents():
    out = {}
    for name, gkm in (("s6", gen_s6()), ("projective3", gen_projective(3)), ("grassmannian2", gen_grassmannian(2))):
        pinned = json.loads(emit_gkm(document_from_gkm(gkm)))
        out[name] = pinned
        out[name + "-free"] = {k: v for k, v in pinned.items() if k != "connection"}
    return out


FUZZ_DOCUMENTS = _fixture_documents()
FUZZ_VALUES = [None, True, 0, -1, 1.5, "", "x", "e1", "p", "é", "a\nb", "a\u2028b", [], {}, [0], [[]], {"id": "x"}]
FUZZ_HUGE = [2**64, -(10**30), 2**521 - 1, 10**4000]
FUZZ_COMMANDS = [
    ["validate", "{doc}"],
    ["connection", "{doc}"],
    ["invariant", "{doc}"],
    ["rank", "{doc}", "--basis"],
    ["rank", "{doc}", "--method", "full"],
    ["dot", "{doc}", "--annotate", "congruence"],
    ["extend", "{doc}", "--target", "3", "-o", "{out}"],
    ["project", "{doc}", "--matrix", "1 0; 0 1", "-o", "{out}"],
    ["check-extension", "{base}", "{doc}"],
    ["check-extension", "{doc}", "{base}"],
]


def _paths(node, path=()):
    """The key path of every node below ``node``, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def _mutated_documents(draw):
    # up to three mutations: drop a field or item, swap in a value of the
    # wrong type or meaning, duplicate a list item, or swap in a huge integer
    name = draw(st.sampled_from(sorted(FUZZ_DOCUMENTS)))
    doc = copy.deepcopy(FUZZ_DOCUMENTS[name])
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(doc))
        kind = draw(st.sampled_from(["drop", "replace", "duplicate", "huge"]))
        if kind == "duplicate":
            paths = [p for p in paths if isinstance(p[-1], int)]
        elif kind == "huge":
            paths = [p for p in paths if type(_at(doc, p)) is int]
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        parent, key = _at(doc, path[:-1]), path[-1]
        if kind == "drop":
            del parent[key]
        elif kind == "duplicate":
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(FUZZ_HUGE if kind == "huge" else FUZZ_VALUES)))
    return name, doc


@settings(derandomize=True, deadline=None, max_examples=300)
@given(mutated=_mutated_documents(), command=st.sampled_from(FUZZ_COMMANDS))
def test_mutated_documents_end_in_an_exit_code_and_at_most_one_error_line(mutated, command):
    # malformed or bent documents through every command, in-process: the exit
    # code is 0, 1 or 2, no exception but SystemExit escapes, a failing
    # command other than validate and check-extension says why in one
    # error: line, and validate passes only documents that pass the axioms
    name, doc = mutated
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"doc": Path(tmp) / "doc.json", "base": Path(tmp) / "base.json", "out": Path(tmp) / "out.json"}
        text = json.dumps(doc)
        paths["doc"].write_text(text, encoding="utf-8")
        paths["base"].write_text(json.dumps(FUZZ_DOCUMENTS[name]), encoding="utf-8")
        code, _, err = main_outcome([arg.format(**paths) for arg in command])
    assert code in (0, 1, 2)
    if code == 1 and command[0] not in ("validate", "check-extension"):
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
    if code == 0 and command[0] == "validate":
        assert validate_gkm(load_gkm(text)).ok


def _axiom_failing_documents():
    """``(name, text, base)``: documents failing the axioms, each with a valid base on its graph.

    Bent connection-free copies of small fixtures (those that still pass are
    left out), the twisted s6, and projective(3) with every weight doubled.
    """
    rng = random.Random(43)
    out = []
    for name, gkm in (("s6", gen_s6()), ("projective3", gen_projective(3)), ("grassmannian2", gen_grassmannian(2))):
        base = emit_gkm(document_from_gkm(gkm))
        for k, doc in enumerate(bent_documents(rng, gkm, 12)):
            graph, axial = labels_from_document(doc)
            try:
                if validate_axial(graph, axial, infer_connection(graph, axial)).ok:
                    continue
            except GkmError:
                pass
            out.append((f"{name}-bent{k}", emit_gkm(doc), base))
    out.append(("twisted-s6", TWISTED_S6, emit_gkm(document_from_gkm(gen_s6()))))
    doc = json.loads(emit_gkm(document_from_gkm(gen_projective(3))))
    for edge in doc["edges"]:
        edge["weight"] = [2 * x for x in edge["weight"]]
    out.append(("doubled-projective3", json.dumps(doc), emit_gkm(document_from_gkm(gen_projective(3)))))
    return out


AXIOM_FAILING_DOCUMENTS = _axiom_failing_documents()


def _expected_validate_output(text: str) -> str:
    """What ``validate`` prints for ``text``, from the reference that checks every pair and every vertex."""
    doc = parse_gkm(text)
    if doc.connection is not None:
        gkm = gkm_from_document(doc)
        return validation_checking_every_vertex(gkm.graph, gkm.axial, gkm.connection).summary() + "\n"
    graph, axial = labels_from_document(doc)
    try:
        connection = infer_connection(graph, axial)
    except GkmError as exc:
        return f"connection: none ({exc})\n" + validation_checking_every_vertex(graph, axial).summary() + "\n"
    return "connection: inferred from the weights\n" + validation_checking_every_vertex(graph, axial, connection).summary() + "\n"


@pytest.mark.parametrize("command", FUZZ_COMMANDS, ids=" ".join)
def test_documents_failing_the_axioms_end_every_command_with_exit_1(command, tmp_path):
    # validate prints its report, a failing check-extension candidate is no
    # extension, and every other command says why in one error: line
    assert len(AXIOM_FAILING_DOCUMENTS) > 20
    paths = {"doc": tmp_path / "doc.json", "base": tmp_path / "base.json", "out": tmp_path / "out.json"}
    no_extension = 0
    for name, text, base in AXIOM_FAILING_DOCUMENTS:
        paths["doc"].write_text(text, encoding="utf-8")
        paths["base"].write_text(base, encoding="utf-8")
        code, out, err = main_outcome([arg.format(**paths) for arg in command])
        assert code == 1, name
        if command[0] == "validate":
            assert (out, err) == (_expected_validate_output(text), ""), name
            continue
        if command[0] == "check-extension" and command[2] == "{doc}":
            try:
                gkm_from_document(parse_gkm(text))
            except GkmError:
                pass  # the candidate's connection cannot be inferred: an error, not a check
            else:
                assert out.startswith("extension: no (") and len(out.splitlines()) == 1 and err == "", name
                no_extension += 1
                continue
        assert out == "", name
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (name, err)
        assert not paths["out"].exists(), name
    assert no_extension > 5 or command[:3] != ["check-extension", "{base}", "{doc}"]
