"""Command line interface.

Exit codes: 0 on success, 1 when the input fails validation (the axioms
included) or a requested construction fails, 2 on usage errors (argparse's
default).  ``validate`` reports the axioms from the validation the assembled
graph holds, with a pinned connection and an inferred one alike, and from the
labels alone (axioms 1, 2 and 4) when no connection can be inferred; every
other command that reads a document loads a validated graph, and an input
failing an axiom ends it with one ``error:`` line, except a failing candidate
of ``check-extension``, which is no extension.  All numeric output is exact
integers.  Each command loads only the layers it runs, and the parser holds
only the sub-parser of the command it parses.  All load the read side (``io``,
``graph``), and all but ``gen`` the validation layer (``axial``) and the
Hermite core (``hermite``) it checks axiom 4 with, and ``project`` its
surjectivity; the completion (``intlinalg``) loads for ``extend`` alone, the
writer for ``gen``, ``extend``, ``project`` and ``dot``, which write what they
output piece by piece and never hold its whole text.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .errors import GkmError
from .io import format_vector, gkm_from_document, labels_from_document, parse_gkm

if TYPE_CHECKING:
    from .graph import GkmGraph
    from .hermite import IntegerMatrix


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise GkmError(f"cannot read {path}: {exc}") from exc


def _load(path: str) -> GkmGraph:
    """The validated graph of the document at ``path``, as :func:`~gkmgraph.io.load_gkm` loads a text.

    The text goes straight into :func:`parse_gkm`, which frees it once decoded;
    ``load_gkm`` would hold it until validation ends.
    """
    from .axial import validated

    return validated(gkm_from_document(parse_gkm(_read(path))))


def _write_output(pieces: Iterable[str], out: str | None) -> None:
    """Write ``pieces`` in order, to standard output when ``out`` is ``None`` or ``-``, else to the file ``out``.

    No piece is joined to another, so the text is never held whole.  The file is
    opened once the caller has built what the pieces are laid out from: a document
    snapshot or a loaded graph.
    """
    if out is None or out == "-":
        for piece in pieces:
            for i in range(0, len(piece), 2048):  # within the buffer: a longer write cut short by a closed pipe won't raise
                sys.stdout.write(piece[i : i + 2048])
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise GkmError(f"cannot write {out}: {exc}") from exc


def _write_gkm(gkm: GkmGraph, out: str | None) -> None:
    from .writer import document_from_gkm, iter_gkm

    _write_output(iter_gkm(document_from_gkm(gkm)), out)


def _parse_matrix(text: str) -> IntegerMatrix:
    from .hermite import IntegerMatrix

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
    return IntegerMatrix.from_rows(rows)


def cmd_validate(args: argparse.Namespace) -> int:
    from .axial import AmbiguousConnectionError, ConnectionNotFoundError, validate_axial, validate_gkm

    doc = parse_gkm(_read(args.file))
    try:
        gkm = gkm_from_document(doc)
    except (ConnectionNotFoundError, AmbiguousConnectionError) as exc:
        # inference found no connection: axioms 1, 2 and 4 are what the labels alone decide
        print(f"connection: none ({exc})")
        print(validate_axial(*labels_from_document(doc)).summary())
        return 1
    if doc.connection is None:
        print("connection: inferred from the weights")
    report = validate_gkm(gkm)
    print(report.summary())
    return 0 if report.ok else 1


def cmd_connection(args: argparse.Namespace) -> int:
    from .axial import infer_connection, validated

    doc = parse_gkm(_read(args.file))
    gkm = validated(gkm_from_document(doc))
    # without a pinned connection, assembly has already inferred it
    conn = gkm.connection if doc.connection is None else infer_connection(gkm.graph, gkm.axial)
    g = gkm.graph
    for e in g.darts:
        pairs = ", ".join(f"{d}->{conn[e][d]}" for d in g.out_darts(g.source(e)))
        print(f"{e}: {pairs}")
    return 0


def cmd_invariant(args: argparse.Namespace) -> int:
    from .congruence import invariant_function

    gkm = _load(args.file)
    inv = invariant_function(gkm)
    for e in gkm.graph.darts:
        print(f"{e}: {format_vector(inv[e])}")
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    from .axgroup import axial_group_basis

    gkm = _load(args.file)
    basis = axial_group_basis(gkm, method=args.method)
    print(f"rank: {basis.rank}")
    print(f"no effective torus of dimension > {basis.rank} acts on this structure")
    if args.basis:
        for k, row in enumerate(basis.coordinate_matrix.data, start=1):
            blocks = (row[i : i + gkm.m] for i in range(0, len(row), gkm.m))
            print(f"f{k}:", " ".join(f"{v}:{format_vector(b)}" for v, b in zip(gkm.graph.vertices, blocks)))
    return 0


def cmd_extend(args: argparse.Namespace) -> int:
    from .extension import extend_axial

    gkm = _load(args.file)
    _write_gkm(extend_axial(gkm, args.target), args.output)
    return 0


def cmd_project(args: argparse.Namespace) -> int:
    from .extension import project_axial

    gkm = _load(args.file)
    _write_gkm(project_axial(gkm, _parse_matrix(args.matrix)), args.output)
    return 0


def cmd_check_extension(args: argparse.Namespace) -> int:
    from .extension import verify_extension

    base = _load(args.base)
    candidate = gkm_from_document(parse_gkm(_read(args.candidate)))  # failing the axioms, it is no extension
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
    _write_gkm(gkm, args.output)
    return 0


def cmd_dot(args: argparse.Namespace) -> int:
    from .writer import iter_dot

    gkm = _load(args.file)
    _write_output(iter_dot(gkm, annotate=args.annotate), args.output)
    return 0


def _file_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")


def _rank_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--method", choices=["propagate", "full"], default="propagate")
    p.add_argument("--basis", action="store_true")


def _extend_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--target", type=int, required=True, help="rank of the extended weights")
    p.add_argument("-o", "--output", required=True)


def _project_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--matrix", required=True, help='rows separated by ";", e.g. "1 0 1; 0 1 1"')
    p.add_argument("-o", "--output", required=True)


def _check_extension_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("base")
    p.add_argument("candidate")


def _gen_arguments(p: argparse.ArgumentParser) -> None:
    families = p.add_subparsers(dest="family", required=True)
    q = families.add_parser("projective")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("-o", "--output")
    q = families.add_parser("s6")
    q.add_argument("-o", "--output")
    q = families.add_parser("grassmannian")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("-o", "--output")


def _dot_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--annotate", choices=["none", "weights", "congruence"], default="none")
    p.add_argument("-o", "--output")


# name -> (help, handler, arguments), in the order the usage and help list them
_COMMANDS = {
    "validate": ("check the axioms and report per-axiom results", cmd_validate, _file_arguments),
    "connection": ("infer and print the connection", cmd_connection, _file_arguments),
    "invariant": ("print the congruence vector of every dart", cmd_invariant, _file_arguments),
    "rank": ("rank of the solution lattice, optionally with a basis", cmd_rank, _rank_arguments),
    "extend": ("write a maximal-style extension document", cmd_extend, _extend_arguments),
    "project": ("compose the weights with an integer surjection", cmd_project, _project_arguments),
    "check-extension": (
        "decide whether one document extends another", cmd_check_extension, _check_extension_arguments
    ),
    "gen": ("emit a builtin fixture document", cmd_gen, _gen_arguments),
    "dot": ("Graphviz export", cmd_dot, _dot_arguments),
}


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser with the sub-parser of ``command`` only, or with all of them when ``command`` names none.

    For an argv that starts with ``command`` it prints what the full parser prints: such an
    argv fails, if at all, in that sub-parser or with the top-level usage line, which still
    lists every command.
    """
    parser = argparse.ArgumentParser(
        prog="gkmgraph",
        description="Exact computations on weighted m-valent graphs with connections",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = list(_COMMANDS)
    if command in _COMMANDS:
        sub.metavar = "{" + ",".join(names) + "}"
        names = [command]
    for name in names:
        help_text, handler, add_arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GkmError, ValueError) as exc:
        # ValueError: an argument value the library rejects, or input that is not UTF-8;
        # line breaks (ids may hold them) are escaped to keep the error on one line
        print("error: " + "\\n".join(str(exc).splitlines()), file=sys.stderr)
        return 1


def run() -> None:
    """The process entry of the ``gkmgraph`` script and of ``python -m gkmgraph.cli``: one command, then exit.

    The collector is off while the command runs, and what is left is frozen before exit, so
    that interpreter shutdown does not traverse it.  The package leaves no cyclic garbage;
    argparse's parser tree is the only cycle a command leaves.  Freezing, unlike ``os._exit``,
    keeps the flushing of the streams and the ``atexit`` hooks.  ``main`` leaves the
    collector as it finds it.  A closed standard output ends the command with one ``error:`` line.
    """
    gc.disable()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the flush at exit would raise again
        print("error: standard output was closed", file=sys.stderr)
        code = 1
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
