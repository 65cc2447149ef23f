import ast
import importlib
import sys
from pathlib import Path

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
    # the traced run wraps each of these by name, so a deleted or renamed
    # function breaks it even where no test calls that function
    names = _span_names()
    assert names
    for module, attr in names:
        assert callable(getattr(importlib.import_module(f"gkmgraph.{module}"), attr, None)), (module, attr)


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


def test_public_names_resolve():
    # a name removed from the package but left in __all__ would otherwise
    # fail only on a star import
    import gkmgraph

    names = gkmgraph.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(gkmgraph, name), name
