"""The traced run: spans around the public function of each module.

The CLI's own ``main`` runs in this process while every public function a
command goes through is replaced, in each ``gkmgraph`` module that refers to
it, by a wrapper that records a span (name, start, end, parent, command).
Spans stay in memory and are written out when the run ends.  A call nested in
a span of the same name (``validate_gkm`` calling ``validate_axial``) is part
of that span, not a new one.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import random
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

from inputs import rename
from proc import SRC, Child

SPAN_NAMES = {
    ("io", "parse_gkm"): "io.parse",
    ("io", "gkm_from_document"): "io.assemble",
    ("io", "document_from_gkm"): "io.emit",
    ("io", "emit_gkm"): "io.emit",
    ("io", "emit_dot"): "io.dot",
    ("graph", "build_graph"): "graph.build",
    ("axial", "infer_connection"): "axial.infer",
    ("axial", "validate_axial"): "axial.validate",
    ("axial", "validate_gkm"): "axial.validate",
    ("intlinalg", "invariant_factors"): "intlinalg.smith",
    ("congruence", "invariant_function"): "congruence.invariant",
    ("axgroup", "axial_group_basis"): "axgroup.basis",
    ("intlinalg", "complete_inside_lattice"): "intlinalg.complete",
    ("intlinalg", "saturation"): "intlinalg.saturation",
    ("extension", "project_axial"): "extension.project",
    ("extension", "extend_axial"): "extension.extend",
    ("extension", "verify_extension"): "extension.verify",
}

# Per-layer metrics: name -> (unit, better).
LAYER_METRICS = {
    "cli.import_s": ("s", "lower"),
    "io.parse_s": ("s", "lower"),
    "io.assemble_s": ("s", "lower"),
    "io.doc_bytes": ("bytes", "lower"),
    "io.emit_s": ("s", "lower"),
    "io.dot_s": ("s", "lower"),
    "graph.build_s": ("s", "lower"),
    "graph.vertices": ("count", "lower"),
    "graph.valence": ("count", "lower"),
    "graph.darts": ("count", "lower"),
    "axial.infer_s": ("s", "lower"),
    "axial.validate_s": ("s", "lower"),
    "intlinalg.smith_s": ("s", "lower"),
    "congruence.invariant_s": ("s", "lower"),
    "axgroup.basis_s": ("s", "lower"),
    "axgroup.cycles": ("count", "lower"),
    "axgroup.constraint_rows": ("count", "lower"),
    "axgroup.rank": ("count", "higher"),
    "axgroup.basis_max_bits": ("bits", "lower"),
    "axgroup.oracle_mismatches": ("count", "lower"),
    "intlinalg.complete_s": ("s", "lower"),
    "intlinalg.saturation_s": ("s", "lower"),
    "extension.project_s": ("s", "lower"),
    "extension.extend_s": ("s", "lower"),
    "extension.verify_s": ("s", "lower"),
    "extension.retry_ratio": ("ratio", "lower"),
    "extension.fail_ratio": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    command: str
    error: str | None = None


class Tracer:
    """Collects spans and per-layer counts while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.command = ""
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.command)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span: Span, error: BaseException | None) -> None:
        span.end = time.perf_counter()
        span.error = type(error).__name__ if error is not None else None
        self.stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if any(s.name == name for s in self.stack):
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span, exc)
                raise
            self._close(span, None)
            self._count(name, args, result)
            return result

        return traced

    def _count(self, name: str, args: tuple, result) -> None:
        c = self.counts
        if name == "io.parse":
            c["io.doc_bytes"] += len(args[0].encode("utf-8"))
        elif name == "graph.build":
            c["graph.vertices"] += len(result.vertices)
            c["graph.darts"] += len(result.sources)
            c["graph.valence"] = max(c["graph.valence"], result.valence)
        elif name == "axgroup.basis":
            g = args[0].graph
            cycles = len(g.edge_representatives()) - len(g.vertices) + 1
            c["axgroup.cycles"] += cycles
            c["axgroup.constraint_rows"] += cycles * g.valence
            c["axgroup.rank"] += result.rank
            bits = max((abs(x).bit_length() for row in result.coordinate_matrix.data for x in row), default=0)
            c["axgroup.basis_max_bits"] = max(c["axgroup.basis_max_bits"], bits)

    def install(self) -> None:
        """Wrap every traced function wherever a ``gkmgraph`` module refers to it."""
        targets = {}
        for (module, attr), name in SPAN_NAMES.items():
            fn = getattr(importlib.import_module(f"gkmgraph.{module}"), attr)
            targets[id(fn)] = (fn, self._wrap(name, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "gkmgraph" and not modname.startswith("gkmgraph."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in targets and targets[id(value)][0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, targets[id(value)][1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def run_main(self, command_id: str, args: list[str], stdout: Path, stderr: Path) -> Child:
        """``gkmgraph.cli.main(args)`` in this process, as one root span."""
        from gkmgraph import cli

        out, err = io.StringIO(), io.StringIO()
        self.command = command_id
        root = self._open("command")
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(args)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a traceback is a failed command, not a failed run
                traceback.print_exc()
                rc, error = 1, exc
        self._close(root, error)
        stdout.write_text(out.getvalue(), encoding="utf-8")
        stderr.write_text(err.getvalue(), encoding="utf-8")
        return Child(args, rc, root.end - root.start, 0, stdout, stderr)

    def metrics(self, untraced: dict[str, float], import_s: float, mismatches: int) -> dict[str, float]:
        """Per-layer values over one pass of the command list.

        ``untraced`` maps a command id of the traced pass to the wall time of
        the same command run as a child without tracing.
        """
        total: dict[str, float] = defaultdict(float)
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
            if s.name != "command":
                total[f"{s.name}_s"] += s.end - s.start
        extends = [s for s in self.spans if s.name == "extension.extend"]
        retried = sum(any(c.name == "intlinalg.saturation" for c in children[s.id]) for s in extends)
        failed = sum(s.error == "EffectivenessError" for s in extends)
        basis_in_extend = sum(
            c.end - c.start for s in extends for c in children[s.id] if c.name == "axgroup.basis"
        )
        covered = work = 0.0
        for root in self.spans:
            if root.name == "command" and root.command in untraced:
                covered += sum(c.end - c.start for c in children[root.id])
                work += untraced[root.command] - import_s
        values = {name: total.get(name, 0.0) for name in LAYER_METRICS if name.endswith("_s")}
        values.update({name: self.counts.get(name, 0) for name in LAYER_METRICS if not name.endswith("_s")})
        values.update({
            "cli.import_s": import_s,
            "extension.extend_s": total["extension.extend_s"] - basis_in_extend,
            "extension.retry_ratio": retried / len(extends) if extends else 0.0,
            "extension.fail_ratio": failed / len(extends) if extends else 0.0,
            "trace.coverage": covered / work if work > 0 else 0.0,
            "axgroup.oracle_mismatches": mismatches,
        })
        return values

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]), encoding="utf-8")


def import_gkmgraph() -> None:
    """Import the package from the checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import gkmgraph
    import gkmgraph.cli  # noqa: F401  (its namespace must exist before wrapping)

    if Path(gkmgraph.__file__).resolve().parent != (SRC / "gkmgraph").resolve():
        raise ImportError(f"gkmgraph was imported from {gkmgraph.__file__}, not from {SRC}")


def oracle_mismatches(seed: int) -> int:
    """Fixtures on which the full-system solver and propagation disagree.

    Covers s6, projective(2..8) and grassmannian(2..6), renamed by the seed so
    the base vertex and the spanning tree differ from run to run.
    """
    from gkmgraph import axial_group_basis, document_from_gkm, emit_gkm, load_gkm
    from gkmgraph import gen_grassmannian, gen_projective, gen_s6

    fixtures = [gen_s6()] + [gen_projective(m) for m in range(2, 9)] + [gen_grassmannian(n) for n in range(2, 7)]
    rng = random.Random(f"oracle/{seed}")
    mismatches = 0
    for gkm in fixtures:
        doc, _ = rename(json.loads(emit_gkm(document_from_gkm(gkm))), rng)
        renamed = load_gkm(json.dumps(doc))
        full = axial_group_basis(renamed, method="full").coordinate_matrix
        mismatches += full != axial_group_basis(renamed).coordinate_matrix
    return mismatches
