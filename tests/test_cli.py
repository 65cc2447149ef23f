import json

import pytest

from gkmgraph.cli import main


@pytest.fixture
def s6_file(tmp_path):
    path = tmp_path / "s6.json"
    assert main(["gen", "s6", "-o", str(path)]) == 0
    return str(path)


def test_gen_writes_a_parseable_document(s6_file, capsys):
    data = json.loads(open(s6_file).read())
    assert data["torus_rank"] == 2
    assert len(data["edges"]) == 3
    assert main(["gen", "projective", "--m", "2"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["torus_rank"] == 2


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


def test_extend_beyond_rank_fails(s6_file, tmp_path, capsys):
    out_path = tmp_path / "never.json"
    assert main(["extend", s6_file, "--target", "3", "-o", str(out_path)]) == 1
    err = capsys.readouterr().err
    assert "rank" in err
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


def test_connection_map_missing_a_pair_is_a_one_line_error(s6_file, capsys):
    doc = json.loads(open(s6_file).read())
    entry = doc["connection"][0]
    entry["maps"] = entry["maps"][1:]
    with open(s6_file, "w") as fh:
        json.dump(doc, fh)
    assert main(["rank", s6_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: connection: map for dart " + entry["dart"] + " ")


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "projective", "--m", "0"],
        ["gen", "grassmannian", "--n", "0"],
        ["extend", "{s6}", "--target", "1", "-o", "{out}"],
        ["project", "{p3}", "--matrix", "1 0 0 0", "-o", "{out}"],
        ["rank", "{latin1}"],
        ["rank", "{deep}"],
    ],
    ids=[
        "projective-m-0",
        "grassmannian-n-0",
        "extend-target-below-n",
        "project-wrong-width",
        "not-utf-8",
        "deep-nesting",
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
    paths = {"s6": s6_file, "p3": p3, "latin1": latin1, "deep": deep, "out": out}
    assert main([a.format(**paths) for a in args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    assert not out.exists()
