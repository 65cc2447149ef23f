"""Command line interface.

Exit codes: 0 on success, 1 when validation or a requested construction
fails, 2 on usage errors (argparse's default).  All numeric output is exact
integers.  The solver, extension and family modules are imported by the
commands that run them, and the integer linear algebra by the code that calls
it, so each command starts by loading only what it uses.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .axial import (
    AmbiguousConnectionError,
    ConnectionNotFoundError,
    infer_connection,
    validate_axial,
)
from .congruence import invariant_function
from .errors import GkmError
from .io import (
    document_from_gkm,
    emit_dot,
    emit_gkm,
    format_vector,
    gkm_from_document,
    labels_from_document,
    load_gkm,
    parse_gkm,
)

if TYPE_CHECKING:
    from .intlinalg import IntegerMatrix


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise GkmError(f"cannot read {path}: {exc}") from exc


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise GkmError(f"cannot write {out}: {exc}") from exc


def _parse_matrix(text: str) -> IntegerMatrix:
    from .intlinalg import IntegerMatrix

    rows = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            rows.append([int(x) for x in chunk.replace(",", " ").split()])
        except ValueError as exc:
            raise GkmError(f"bad matrix row {chunk!r}") from exc
    if not rows:
        raise GkmError("empty matrix")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise GkmError("matrix rows have different lengths")
    return IntegerMatrix.from_rows(rows)


def cmd_validate(args: argparse.Namespace) -> int:
    doc = parse_gkm(_read(args.file))
    connection = None
    note = None
    if doc.connection is not None:
        gkm = gkm_from_document(doc)
        connection = gkm.connection
        report = validate_axial(gkm.graph, gkm.axial, connection)
    else:
        graph, axial = labels_from_document(doc)
        try:
            connection = infer_connection(graph, axial)
            note = "connection: inferred from the weights"
        except (ConnectionNotFoundError, AmbiguousConnectionError) as exc:
            note = f"connection: none ({exc})"
        report = validate_axial(graph, axial)
        if connection is not None:
            # axiom 3 holds without a check: inference sends e to ē and pairs congruent
            # darts; documents negate w(X~), so each ∇_ē is built as the inverse of ∇_e
            report = report._replace(checked=(1, 2, 3, 4))
    if note:
        print(note)
    print(report.summary())
    return 0 if report.ok and connection is not None else 1


def cmd_connection(args: argparse.Namespace) -> int:
    doc = parse_gkm(_read(args.file))
    gkm = gkm_from_document(doc)
    # without a pinned connection, assembly has already inferred it
    conn = gkm.connection if doc.connection is None else infer_connection(gkm.graph, gkm.axial)
    g = gkm.graph
    for e in g.darts:
        pairs = ", ".join(f"{d}->{conn.maps[e][d]}" for d in g.out_darts(g.source(e)))
        print(f"{e}: {pairs}")
    return 0


def cmd_invariant(args: argparse.Namespace) -> int:
    gkm = load_gkm(_read(args.file))
    inv = invariant_function(gkm)
    for e in gkm.graph.darts:
        print(f"{e}: {format_vector(inv[e])}")
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    from .axgroup import axial_group_basis

    gkm = load_gkm(_read(args.file))
    basis = axial_group_basis(gkm, method=args.method)
    print(f"rank: {basis.rank}")
    print(f"no effective torus of dimension > {basis.rank} acts on this structure")
    if args.basis:
        for k, el in enumerate(basis.elements, start=1):
            parts = " ".join(f"{v}:{format_vector(el.values[v])}" for v in gkm.graph.vertices)
            print(f"f{k}: {parts}")
    return 0


def cmd_extend(args: argparse.Namespace) -> int:
    from .extension import extend_axial

    gkm = load_gkm(_read(args.file))
    out = extend_axial(gkm, args.target)
    _write_output(emit_gkm(document_from_gkm(out)), args.output)
    return 0


def cmd_project(args: argparse.Namespace) -> int:
    from .extension import project_axial

    gkm = load_gkm(_read(args.file))
    out = project_axial(gkm, _parse_matrix(args.matrix))
    _write_output(emit_gkm(document_from_gkm(out)), args.output)
    return 0


def cmd_check_extension(args: argparse.Namespace) -> int:
    from .extension import verify_extension

    base = load_gkm(_read(args.base))
    candidate = load_gkm(_read(args.candidate))
    check = verify_extension(base, candidate)
    if check.ok:
        print("extension: yes")
        assert check.projection is not None
        for row in check.projection.data:
            print("  " + " ".join(str(x) for x in row))
        return 0
    print(f"extension: no ({check.detail})")
    return 1


def cmd_gen(args: argparse.Namespace) -> int:
    from .families import gen_grassmannian, gen_projective, gen_s6

    if args.family == "projective":
        gkm = gen_projective(args.m)
    elif args.family == "s6":
        gkm = gen_s6()
    else:
        gkm = gen_grassmannian(args.n)
    _write_output(emit_gkm(document_from_gkm(gkm)), args.output)
    return 0


def cmd_dot(args: argparse.Namespace) -> int:
    gkm = load_gkm(_read(args.file))
    _write_output(emit_dot(gkm, annotate=args.annotate), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkmgraph",
        description="Exact computations on weighted m-valent graphs with connections",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the axioms and report per-axiom results")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("connection", help="infer and print the connection")
    p.add_argument("file")
    p.set_defaults(func=cmd_connection)

    p = sub.add_parser("invariant", help="print the congruence vector of every dart")
    p.add_argument("file")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("rank", help="rank of the solution lattice, optionally with a basis")
    p.add_argument("file")
    p.add_argument("--method", choices=["propagate", "full"], default="propagate")
    p.add_argument("--basis", action="store_true")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("extend", help="write a maximal-style extension document")
    p.add_argument("file")
    p.add_argument("--target", type=int, required=True, help="rank of the extended weights")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("project", help="compose the weights with an integer surjection")
    p.add_argument("file")
    p.add_argument("--matrix", required=True, help='rows separated by ";", e.g. "1 0 1; 0 1 1"')
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("check-extension", help="decide whether one document extends another")
    p.add_argument("base")
    p.add_argument("candidate")
    p.set_defaults(func=cmd_check_extension)

    p = sub.add_parser("gen", help="emit a builtin fixture document")
    gen_sub = p.add_subparsers(dest="family", required=True)
    q = gen_sub.add_parser("projective")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("-o", "--output")
    q.set_defaults(func=cmd_gen)
    q = gen_sub.add_parser("s6")
    q.add_argument("-o", "--output")
    q.set_defaults(func=cmd_gen)
    q = gen_sub.add_parser("grassmannian")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("-o", "--output")
    q.set_defaults(func=cmd_gen)

    p = sub.add_parser("dot", help="Graphviz export")
    p.add_argument("file")
    p.add_argument("--annotate", choices=["none", "weights", "congruence"], default="none")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GkmError, ValueError) as exc:
        # ValueError: an argument value the library rejects, or input that is not UTF-8;
        # line breaks (ids may hold them) are escaped to keep the error on one line
        print("error: " + "\\n".join(str(exc).splitlines()), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
