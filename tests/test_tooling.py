import ast
import importlib
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import FunctionType

import pytest

from gkmgraph import (
    AxiomFailure,
    GkmGraph,
    IntegerMatrix,
    OrientedGraph,
    axial_group_basis,
    document_from_gkm,
    emit_gkm,
    gen_projective,
    gen_s6,
    infer_connection,
    validate_gkm,
    verify_extension,
)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _span_names():
    """``SPAN_NAMES`` of the benchmark's tracer, read without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPAN_NAMES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPAN_NAMES in {TRACER}")


def test_traced_functions_exist():
    # the traced run wraps each of these by name, so a deleted, renamed or
    # moved function breaks it even where no test calls that function
    names = _span_names()
    assert names
    for module, attr in names:
        assert isinstance(getattr(importlib.import_module(f"gkmgraph.{module}"), attr, None), FunctionType), (
            module, attr
        )


@pytest.mark.parametrize("name", ["document_from_gkm", "emit_dot", "emit_gkm"])
def test_io_resolves_the_writer_names_to_the_writer(name):
    # the traced run still looks these up in gkmgraph.io
    import gkmgraph
    import gkmgraph.io
    import gkmgraph.writer

    assert getattr(gkmgraph.io, name) is getattr(gkmgraph.writer, name)
    assert gkmgraph._MODULES[name] == "writer"


def test_io_refuses_an_unknown_name():
    import gkmgraph.io

    with pytest.raises(AttributeError, match="no_such_name"):
        gkmgraph.io.no_such_name


def test_src_imports_only_the_standard_library():
    # the package declares no dependencies and uses no numeric backend
    src = Path(__file__).resolve().parents[1] / "src" / "gkmgraph"
    modules = sorted(src.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "__future__", (path.name, name)


def test_src_never_asks_json_for_an_indented_encoding():
    # json.dumps and json.dump run their pure-Python encoder whenever indent
    # is set; emit_gkm lays out that text itself at the C encoder's speed
    src = Path(__file__).resolve().parents[1] / "src" / "gkmgraph"
    modules = sorted(src.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            if getattr(node.func, "attr", getattr(node.func, "id", None)) in ("dump", "dumps"):
                assert all(k.arg != "indent" for k in node.keywords), (path.name, node.lineno)


def test_src_decodes_json_only_in_parse_gkm_with_the_pairs_hook():
    # one decode path: the connection is decoded into its dicts while
    # json.loads runs, so a second json.load/json.loads would hold it twice
    src = Path(__file__).resolve().parents[1] / "src" / "gkmgraph"
    calls = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(child.func, "attr", getattr(child.func, "id", None)) in (
                "load", "loads"
            ):
                calls.append((path.stem, function, [k.arg for k in child.keywords]))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    assert calls == [("io", "parse_gkm", ["object_pairs_hook"])]


def test_io_leaves_dart_names_and_their_order_to_the_graph():
    # build_graph alone names each reverse dart and orders graph.sources;
    # io keys each reverse weight by graph.reverse
    tree = ast.parse((Path(__file__).resolve().parents[1] / "src" / "gkmgraph" / "io.py").read_text(encoding="utf-8"))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    docstrings = {
        node.body[0].value
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node) is not None
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node not in docstrings:
            assert "~" not in node.value, node.lineno
    assert not names & {"REVERSE_SUFFIX", "reverse_name"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "sources":
            # a membership test only: never iterated, so its order is not read
            test = parents[node]
            assert isinstance(test, ast.Compare) and test.comparators == [node], node.lineno
            assert isinstance(test.ops[0], (ast.In, ast.NotIn)), node.lineno


def _callers(name: str) -> list[tuple[str, str | None]]:
    """``(module, function)`` of every call of ``name`` in the package, sorted."""
    src = Path(__file__).resolve().parents[1] / "src" / "gkmgraph"
    callers = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(child.func, "id", getattr(child.func, "attr", None)) == name:
                callers.append((path.stem, function))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return sorted(callers)


def test_xgcd_has_only_the_two_eliminations_as_callers():
    # integer elimination lives in _echelon, plus the column elimination that
    # complete_inside_lattice needs for its completion; a third caller of the
    # xgcd step would be a second elimination routine beside them
    assert _callers("_xgcd") == [("hermite", "_echelon"), ("intlinalg", "complete_inside_lattice")]


def test_divmod_is_called_only_in_the_congruence_pass_and_the_back_substitution():
    # the congruence coefficients are the quotients axiom 3 takes, once per
    # out-dart of a dart it checks in full, and validation hands them on; a
    # second copy of that division would compute them twice
    assert _callers("divmod") == [("axial", "_check_dart"), ("hermite", "_back_substitute")]


def test_solver_combines_kernel_rows_only_where_an_edge_refines(monkeypatch):
    # on the [I | 1] projection of grassmannian(9), with ℓ = n + 1, every
    # non-tree edge is checked; an edge that holds costs one transport of the
    # kernel rows and one comparison, so _combine runs once per row of each
    # kernel a refining edge produces and nowhere else.  The kernel at the
    # first vertex is then already in HNF, so the expansion transports no row
    # again
    from gkmgraph import axgroup, gen_grassmannian, project_axial

    n = 9
    fold = IntegerMatrix.from_rows([[int(c == i) for c in range(n)] + [1] for i in range(n)])
    gkm = project_axial(gen_grassmannian(n), fold)
    combined, ranks, moved, canonical = [], [], [], []
    combine, kernel, step, basis = axgroup._combine, axgroup.integer_kernel_basis, axgroup._step, axgroup.lattice_basis

    def counted_combine(terms, width):
        combined.append(width)
        return combine(terms, width)

    def counted_kernel(matrix):
        ranks.append(len(out := kernel(matrix)))
        return out

    def counted_step(*args):
        move = step(*args)
        return lambda x: moved.append(x) or move(x)

    def counted_basis(rows, width):
        out = basis(rows, width)
        canonical.append((len(moved), out == rows))
        return out

    monkeypatch.setattr(axgroup, "_combine", counted_combine)
    monkeypatch.setattr(axgroup, "integer_kernel_basis", counted_kernel)
    monkeypatch.setattr(axgroup, "_step", counted_step)
    monkeypatch.setattr(axgroup, "lattice_basis", counted_basis)
    assert axial_group_basis(gkm).rank == n + 1
    assert 0 < len(ranks) <= gkm.m - (n + 1)  # each refining edge cuts the rank
    assert len(combined) == sum(ranks)
    assert canonical == [(len(moved), True)]


def _full_checks(monkeypatch, gkm) -> Counter:
    """How many times validating ``gkm`` checks a dart of each edge in full, by edge."""
    from gkmgraph import axial

    checked = Counter()
    check = axial._check_dart

    def counting(graph, maps, e, *rest):
        checked[min(e, graph.reverse(e))] += 1
        return check(graph, maps, e, *rest)

    monkeypatch.setattr(axial, "_check_dart", counting)
    axial._validate(gkm.graph, gkm.axial, gkm.connection)
    return checked


def test_axiom3_checks_one_dart_of_each_edge_in_full(monkeypatch):
    # the reverse dart of an edge takes its checks and coefficients from the
    # forward dart, with the pinned connection and the inferred one; it is
    # checked in full only when the forward dart fails, or when w(ē) is not −w(e)
    from helpers import method_fixtures

    for name, gkm in method_fixtures().items():
        edges = gkm.graph.edge_representatives()
        assert _full_checks(monkeypatch, gkm) == dict.fromkeys(edges, 1), name
        inferred = GkmGraph(gkm.graph, gkm.axial, infer_connection(gkm.graph, gkm.axial))
        assert _full_checks(monkeypatch, inferred) == dict.fromkeys(edges, 1), name
    gkm = gen_projective(3)
    e, f = gkm.graph.edge_representatives()[:2]
    maps = dict(gkm.connection)
    maps[e] = {**maps[e], e: maps[e][f], f: maps[e][e]}  # the forward dart fails, no other
    swapped = GkmGraph(gkm.graph, gkm.axial, maps)
    assert _full_checks(monkeypatch, swapped) == {**dict.fromkeys(gkm.graph.edge_representatives(), 1), e: 2}
    assert {fail.where for fail in validate_gkm(swapped).failures} == {f"dart {e}", f"dart {e}~"}
    weights = {**gkm.axial.weights, gkm.graph.reverse(f): gkm.weight(f)}  # the forward dart passes
    assert _full_checks(monkeypatch, gkm.with_weights(weights, gkm.n))[f] == 2


def test_helpers_import_nothing_private_from_the_package():
    # the oracles in tests/helpers.py re-derive what they check, so they may
    # use the public API only, never a private helper of the code under test
    helpers = Path(__file__).resolve().parent / "helpers.py"
    for node in ast.walk(ast.parse(helpers.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "gkmgraph":
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if alias.name.split(".")[0] == "gkmgraph"]
        else:
            continue
        for name in names:
            assert not any(part.startswith("_") for part in name.split(".")), name


# public names nothing outside the tests uses, each with the reason it stays
KEPT_WITHOUT_A_USE = {
    "propagate": "the paper's transport along one dart; the tests' oracle transport_matrix reads it",
}


def test_every_public_name_is_used_outside_the_tests():
    # a use is a name or an attribute in the package, the demos or the
    # benchmark, or a function the traced run wraps by name; not the name's
    # own definition, the table in __init__ or a docstring.  Every field of a
    # public record is read there as an attribute, too
    import gkmgraph

    root = Path(__file__).resolve().parents[1]
    used = {attr for _, attr in _span_names()}
    read = set()
    for folder in ("src/gkmgraph", "demos", "perfbench"):
        for path in sorted((root / folder).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                    if isinstance(node.ctx, ast.Load):
                        read.add(node.attr)
    assert sorted(set(gkmgraph.__all__) - used - set(KEPT_WITHOUT_A_USE)) == []
    assert set(KEPT_WITHOUT_A_USE) <= set(gkmgraph.__all__) - used
    records = [getattr(gkmgraph, name) for name in gkmgraph.__all__]
    records = [r for r in records if isinstance(r, type) and issubclass(r, tuple) and hasattr(r, "_fields")]
    assert records
    assert [(r.__name__, f) for r in records for f in r._fields if f not in read] == []


@pytest.mark.parametrize("connection", ["pinned", "inferred"])
def test_a_load_packs_and_checks_the_weights_once(connection, monkeypatch):
    # inference hands the packing it read on to validation, and packing checks
    # the weights, so a load packs them once and checks them once
    from gkmgraph import axial, gen_grassmannian, graph, load_gkm

    calls = Counter()

    def counted(name, original):
        def counting(*args):
            calls[name] += 1
            return original(*args)

        return counting

    for name in ("_packed", "_check_weights"):
        wrapper = counted(name, getattr(graph, name))
        for module in (graph, axial):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    doc = document_from_gkm(gen_grassmannian(4))
    if connection == "inferred":
        doc = doc._replace(connection=None, orderings=None)
    assert validate_gkm(load_gkm(emit_gkm(doc))).ok
    assert calls == {"_packed": 1, "_check_weights": 1}


def test_public_names_resolve():
    # a name removed from the package but left in __all__ would otherwise
    # fail only on a star import
    import gkmgraph

    names = gkmgraph.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(gkmgraph, name), name


_RUN_ONE = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
from gkmgraph.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("gkmgraph."))]))
"""


def _loaded_by(argv: list[str]) -> tuple[int, set[str]]:
    """Exit code of one command run in a fresh child, and the package modules it loaded."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    child = _RUN_ONE.format(src=src, argv=argv)
    done = subprocess.run([sys.executable, "-S", "-c", child], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    code, loaded = json.loads(done.stdout)
    return code, {name.removeprefix("gkmgraph.") for name in loaded}


def test_cli_start_loads_only_what_it_runs(tmp_path):
    # a command's start-up cost is the modules it imports and compiles; the
    # solver, the extensions and the families load only in the commands that
    # run them (the extensions load the solver only to extend), the axioms
    # only where a document is read, the writer, the integer linear algebra
    # and the congruence invariant only where they are called, and no record
    # is built by dataclasses (which imports inspect)
    src = Path(__file__).resolve().parents[1] / "src"
    child = f"""
import sys
sys.path.insert(0, {str(src)!r})
import gkmgraph.cli
loaded = {{
    "dataclasses", "inspect", "gkmgraph.axgroup", "gkmgraph.axial", "gkmgraph.congruence", "gkmgraph.extension",
    "gkmgraph.families", "gkmgraph.hermite", "gkmgraph.intlinalg", "gkmgraph.writer"
}} & set(sys.modules)
assert not loaded, sorted(loaded)
import gkmgraph.extension
import gkmgraph.families
loaded = {{"gkmgraph.axgroup", "gkmgraph.congruence", "gkmgraph.intlinalg", "gkmgraph.writer"}} & set(sys.modules)
assert not loaded, sorted(loaded)
import gkmgraph
assert callable(gkmgraph.extend_axial)
namespace = {{}}
exec("from gkmgraph import *", namespace)
assert all(name in namespace for name in gkmgraph.__all__)
try:
    gkmgraph.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("an unknown name resolved")
print("ok")
"""
    done = subprocess.run([sys.executable, "-S", "-c", child], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"

    pinned, free, out = tmp_path / "s6.json", tmp_path / "projective3.json", str(tmp_path / "out.json")
    pinned.write_text(emit_gkm(document_from_gkm(gen_s6())), encoding="utf-8")
    free.write_text(emit_gkm(document_from_gkm(gen_projective(3))._replace(connection=None)), encoding="utf-8")
    # argv, modules the command loads, modules it must not load; every command
    # that reads a document validates it (axial, with hermite for axiom 4)
    cases = [
        (["rank", pinned], {"axgroup", "axial", "hermite"}, {"intlinalg", "writer"}),
        (["validate", free], {"axial", "hermite"}, {"congruence", "intlinalg", "writer"}),
        (["connection", free], {"axial", "hermite"}, {"congruence", "intlinalg", "writer"}),
        (["invariant", free], {"axial", "congruence", "hermite"}, {"axgroup", "intlinalg", "writer"}),
        (["check-extension", pinned, pinned], {"axial", "extension", "hermite"}, {"intlinalg", "writer"}),
        (["dot", pinned], {"axial", "hermite", "writer"}, {"axgroup", "congruence", "intlinalg"}),
        # onto is decided by the Hermite form, as axiom 4 decides spanning
        (["project", pinned, "--matrix", "1 0; 0 1", "-o", out], {"extension", "hermite", "writer"}, {"intlinalg"}),
        (["extend", pinned, "--target", "2", "-o", out], {"axgroup", "intlinalg", "writer"}, set()),
        (["gen", "s6", "-o", out], {"families", "writer"}, {"axial", "hermite"}),
        # the projective family writes its connection, so nothing infers one
        (["gen", "projective", "--m", "4", "-o", out], {"families", "writer"}, {"axial", "hermite"}),
    ]
    for argv, loads, skips in cases:
        code, loaded = _loaded_by([str(a) for a in argv])
        assert code == 0, argv
        assert loads <= loaded and not skips & loaded, (argv, sorted(loaded))


def _records():
    """One instance of every public record class, with the name of one of its fields."""
    gkm = gen_s6()
    doc = document_from_gkm(gkm)
    basis = axial_group_basis(gkm)
    return [
        (gkm, "graph"),
        (gkm.graph, "valence"),
        (gkm.axial, "weights"),
        (doc, "vertices"),
        (doc.edges[0], "weight"),
        (validate_gkm(gkm), "failures"),
        (AxiomFailure(1, "dart e1", "detail"), "axiom"),
        (basis, "rank"),
        (basis.coordinate_matrix, "data"),
        (verify_extension(gkm, gkm), "ok"),
    ]


RECORDS = _records()


@pytest.mark.parametrize("record, field", RECORDS, ids=[type(record).__name__ for record, _ in RECORDS])
def test_records_refuse_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_records_with_equal_fields_compare_equal():
    assert gen_s6() == gen_s6()
    graph = gen_s6().graph
    assert OrientedGraph(graph.vertices, graph.sources, graph.targets, graph.orderings, graph.valence) == graph
    a, b = IntegerMatrix(((1, 2), (3, 4)), 2), IntegerMatrix.from_rows([[1, 2], [3, 4]])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != IntegerMatrix(((1, 2),), 2) and a != a.data


def test_public_named_tuples_have_two_fields_at_least():
    # a one-field record is a wrapper its callers reach through; they use the field itself
    import gkmgraph

    records = [getattr(gkmgraph, name) for name in gkmgraph.__all__]
    records = [r for r in records if isinstance(r, type) and issubclass(r, tuple) and hasattr(r, "_fields")]
    assert records
    for record in records:
        assert len(record._fields) >= 2, record.__name__


def test_integer_matrix_rejects_ragged_rows():
    with pytest.raises(ValueError, match="ragged"):
        IntegerMatrix(((1, 2), (3,)), 2)


def test_only_the_process_entry_touches_the_collector():
    # cli.run turns the collector off and freezes what is left; main, which
    # tests and the benchmark's tracer call in process, and the library
    # leave it alone
    src = Path(__file__).resolve().parents[1] / "src" / "gkmgraph"
    imports, calls = [], []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                imports.extend((path.stem, alias.name) for alias in child.names if alias.name == "gc")
            elif isinstance(child, ast.ImportFrom) and child.module == "gc":
                imports.append((path.stem, "from gc"))
            elif isinstance(child, ast.Attribute) and getattr(child.value, "id", None) == "gc":
                calls.append((path.stem, function, child.attr))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    assert imports == [("cli", "gc")]
    assert calls == [("cli", "run", "disable"), ("cli", "run", "freeze")]


def test_script_entry_is_the_main_block_entry():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, _, function = scripts["gkmgraph"].partition(":")
    assert module == "gkmgraph.cli"
    tree = ast.parse((root / "src" / "gkmgraph" / "cli.py").read_text(encoding="utf-8"))
    (block,) = [
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert [ast.unparse(statement) for statement in block.body] == [f"{function}()"]
    assert callable(getattr(importlib.import_module(module), function))
