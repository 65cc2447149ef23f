"""One command per process: the library leaves no cyclic garbage, and ``cli.run`` is that process's entry.

``cli.run`` turns the collector off for the command and freezes what is left
before exit, which is safe only while the package frees everything it makes by
reference counting; the first test fails on the first reference cycle it leaves.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gkmgraph import (
    GkmError,
    IntegerMatrix,
    axial_group_basis,
    document_from_gkm,
    emit_dot,
    emit_gkm,
    extend_axial,
    gen_grassmannian,
    gen_projective,
    gen_s6,
    gkm_from_document,
    invariant_function,
    load_gkm,
    parse_gkm,
    project_axial,
    validate_gkm,
    verify_extension,
)
from helpers import main_outcome

SRC = Path(__file__).resolve().parents[1] / "src"

# s6 has no valid projection to rank 1 (any two weights in Z^1 are dependent),
# so it is projected by the identity; the others by [I | 1]
PROJECTIONS = {
    "s6": [[1, 0], [0, 1]],
    "projective4": [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]],
    "grassmannian3": [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]],
}
FIXTURES = {"s6": gen_s6, "projective4": lambda: gen_projective(4), "grassmannian3": lambda: gen_grassmannian(3)}

# s6 with every map sending each out-dart to its own reverse: bijections, so it
# loads, but the weight change of e2 across e1 is not a multiple of w(e1)
NOT_PROPORTIONAL = """{
  "torus_rank": 2,
  "vertices": ["p", "q"],
  "edges": [
    {"id": "e1", "endpoints": ["p", "q"], "weight": [1, 0]},
    {"id": "e2", "endpoints": ["p", "q"], "weight": [0, 1]},
    {"id": "e3", "endpoints": ["p", "q"], "weight": [-1, -1]}
  ],
  "connection": [
    {"dart": "e1", "maps": [["e1", "e1~"], ["e2", "e2~"], ["e3", "e3~"]]},
    {"dart": "e2", "maps": [["e1", "e1~"], ["e2", "e2~"], ["e3", "e3~"]]},
    {"dart": "e3", "maps": [["e1", "e1~"], ["e2", "e2~"], ["e3", "e3~"]]}
  ]
}
"""


def _error_name(compute) -> str | None:
    """The class name of the package error ``compute`` raises, or ``None``; keeps no traceback."""
    try:
        compute()
    except GkmError as exc:
        return type(exc).__name__
    return None


def _every_library_path() -> list:
    """Run each library path once on each fixture; return a few results to keep them alive to the end."""
    kept = []
    for name, make in FIXTURES.items():
        gkm = make()
        doc = document_from_gkm(gkm)
        pinned = load_gkm(emit_gkm(doc))
        inferred = load_gkm(emit_gkm(doc._replace(connection=None, orderings=None)))
        assert validate_gkm(pinned).ok and validate_gkm(inferred).ok, name
        invariant_function(inferred)
        for method in ("propagate", "full"):
            axial_group_basis(pinned, method=method)
        projected = project_axial(pinned, IntegerMatrix.from_rows(PROJECTIONS[name]))
        extended = extend_axial(projected, axial_group_basis(projected).rank)
        assert verify_extension(projected, extended).ok, name
        for annotate in ("none", "weights", "congruence"):
            emit_dot(inferred, annotate=annotate)
        kept.append(emit_gkm(document_from_gkm(extended)))
    errors = [
        _error_name(lambda: load_gkm('{"torus_rank": 2, "vertices": ["p"]}')),
        _error_name(lambda: load_gkm("{ not json }")),
        _error_name(lambda: load_gkm(NOT_PROPORTIONAL)),
        _error_name(lambda: invariant_function(gkm_from_document(parse_gkm(NOT_PROPORTIONAL)))),
    ]
    assert errors == ["SchemaError", "ParseError", "AxiomViolationError", "AxiomViolationError"]
    return kept


def test_library_leaves_no_cyclic_garbage():
    # the first pass loads the lazily imported modules, whose import machinery
    # may leave cycles of its own; the second pass runs with the collector off
    _every_library_path()
    gc.collect()
    gc.disable()
    try:
        kept = _every_library_path()
        found = gc.collect()
    finally:
        gc.enable()
    assert kept
    assert found == 0


def test_main_leaves_the_collector_as_it_finds_it(tmp_path):
    path = tmp_path / "s6.json"
    path.write_text(emit_gkm(document_from_gkm(gen_s6())), encoding="utf-8")
    before = gc.isenabled(), gc.get_freeze_count()
    for argv in (["rank", str(path), "--basis"], ["validate", str(tmp_path / "missing.json")], ["rank"]):
        main_outcome(argv)
        assert (gc.isenabled(), gc.get_freeze_count()) == before, argv
    gc.disable()
    try:
        main_outcome(["rank", str(path)])
        assert not gc.isenabled()
    finally:
        gc.enable()


def _process(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "gkmgraph.cli", *argv],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
    )


def test_process_prints_what_main_prints(tmp_path):
    path = tmp_path / "s6.json"
    path.write_text(emit_gkm(document_from_gkm(gen_s6())), encoding="utf-8")
    done = _process("rank", str(path), "--basis")
    assert done.returncode == 0, done.stderr
    assert done.stdout == main_outcome(["rank", str(path), "--basis"])[1]
    assert done.stderr == ""


def test_process_reports_a_missing_file_on_one_line(tmp_path):
    done = _process("rank", str(tmp_path / "missing.json"))
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: cannot read ") and done.stderr.count("\n") == 1


_IDENTITY13 = "; ".join(" ".join("1" if i == j else "0" for j in range(13)) for i in range(13))


@pytest.mark.parametrize(
    "argv",
    [
        ["connection"],
        ["invariant"],
        ["rank", "--basis"],
        ["gen", "grassmannian", "--n", "9"],
        ["project", "--matrix", _IDENTITY13, "-o", "-"],
        ["extend", "--target", "13", "-o", "-"],
    ],
    ids=["connection", "invariant", "rank-basis", "gen", "project", "extend"],
)
def test_process_reports_a_closed_stdout_on_one_line(tmp_path, argv):
    # the reader stops after one line, as `| head -1` does; each command prints
    # more than a pipe holds, so it writes again after the pipe is closed, and
    # a written document must not end cut short with exit code 0
    if argv[0] != "gen":
        path = tmp_path / "grassmannian12.json"
        path.write_text(emit_gkm(document_from_gkm(gen_grassmannian(12))), encoding="utf-8")
        argv = [argv[0], str(path), *argv[1:]]
    with subprocess.Popen(
        [sys.executable, "-m", "gkmgraph.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(SRC)},
    ) as child:
        assert child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read().decode()
    assert child.returncode == 1
    assert err == "error: standard output was closed\n"


@pytest.mark.parametrize("argv", [[], ["rank"], ["rank", "x.json", "--method", "bad"]], ids=["none", "no-file", "method"])
def test_process_exits_2_on_a_usage_error(argv):
    done = _process(*argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "error:" in done.stderr

