import ast
import importlib
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
