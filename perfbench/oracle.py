"""Expected outputs computed without the solver under test.

Everything here is the benchmark's own exact integer arithmetic on the
documents it generated: congruence coefficients from weights and a connection,
the defining relation of the solution lattice, closed-form ranks and the
closed-form connection of the projective family.  Each ``check_*`` function
returns ``None`` when a command's output is right, or a one-line reason.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

RELATION_ROW = re.compile(r"(\S+?):\(([^)]*)\)")


def reverse(dart: str) -> str:
    return dart[:-1] if dart.endswith("~") else dart + "~"


def ratio(diff: tuple[int, ...], base: tuple[int, ...]) -> int | None:
    """The integer ``c`` with ``diff == c * base``, or ``None``."""
    pivot = next(i for i, x in enumerate(base) if x)
    c, r = divmod(diff[pivot], base[pivot])
    if r or any(d != c * b for d, b in zip(diff, base)):
        return None
    return c


def vec(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def projective_connection(m: int, edge_names: dict) -> dict:
    """Closed form for ``gen projective``: across ``i→j``, ``i→k ↦ j→k``.

    Original labels are ``0..m`` and edge ``i-j`` (i < j) runs from ``i`` to
    ``j``; the result is expressed in the renamed ids.
    """

    def dart(a: int, b: int) -> str:
        new = edge_names[f"{min(a, b)}-{max(a, b)}"]
        return new if a < b else new + "~"

    maps = {}
    for a in range(m + 1):
        for b in range(m + 1):
            if a == b:
                continue
            nabla = {dart(a, b): dart(b, a)}
            for k in range(m + 1):
                if k not in (a, b):
                    nabla[dart(a, k)] = dart(b, k)
            maps[dart(a, b)] = nabla
    return maps


def connection_from_document(doc: dict) -> dict:
    """Connection entries of a pinned document, completed by inversion."""
    maps = {c["dart"]: dict(map(tuple, c["maps"])) for c in doc["connection"]}
    for d in list(maps):
        maps.setdefault(reverse(d), {img: src for src, img in maps[d].items()})
    return maps


class Truth:
    """A document's graph, weights and true connection, indexed for checks."""

    def __init__(self, doc: dict, connection: dict, orderings: dict | None):
        self.vertices = sorted(doc["vertices"])
        self.weight: dict[str, tuple[int, ...]] = {}
        self.source: dict[str, str] = {}
        self.target: dict[str, str] = {}
        for e in doc["edges"]:
            a, b = e["endpoints"]
            w = tuple(e["weight"])
            self.weight[e["id"]], self.weight[e["id"] + "~"] = w, tuple(-x for x in w)
            self.source[e["id"]], self.target[e["id"]] = a, b
            self.source[e["id"] + "~"], self.target[e["id"] + "~"] = b, a
        self.darts = sorted(self.weight)
        if orderings is None:
            out: dict[str, list[str]] = {v: [] for v in self.vertices}
            for d in self.darts:
                out[self.source[d]].append(d)
            orderings = out
        self.order = {v: list(orderings[v]) for v in self.vertices}
        self.position = {d: i for order in self.order.values() for i, d in enumerate(order)}
        self.connection = connection
        self._congruence: dict[str, tuple[int, ...]] = {}

    def congruence(self, e: str) -> tuple[int, ...]:
        """``c(e)``: the coefficient of every out-dart at the source of ``e``."""
        if e not in self._congruence:
            nabla, we = self.connection[e], self.weight[e]
            coeffs = []
            for d in self.order[self.source[e]]:
                diff = tuple(x - y for x, y in zip(self.weight[nabla[d]], self.weight[d]))
                c = ratio(diff, we)
                if c is None:
                    raise ValueError(f"the connection is not congruent across {e} at {d}")
                coeffs.append(c)
            if coeffs[self.position[e]] != -2:
                raise ValueError(f"c_e(e) is not -2 at {e}")
            self._congruence[e] = tuple(coeffs)
        return self._congruence[e]

    def relation_holds(self, f: dict[str, tuple[int, ...]]) -> bool:
        """``N_e f(p) - f(q) = f(q)_ē · c(ē)`` for every dart ``e: p → q``."""
        for e in self.darts:
            p, q, eb = self.source[e], self.target[e], reverse(e)
            back, cbar = self.connection[eb], self.congruence(eb)
            fp, fq = f[p], f[q]
            feb = fq[self.position[eb]]
            for j, d in enumerate(self.order[q]):
                if fp[self.position[back[d]]] - fq[j] != feb * cbar[j]:
                    return False
        return True

    def invariant_text(self) -> str:
        return "".join(f"{e}: {vec(self.congruence(e))}\n" for e in self.darts)

    def connection_text(self) -> str:
        lines = []
        for e in self.darts:
            nabla = self.connection[e]
            pairs = ", ".join(f"{d}->{nabla[d]}" for d in self.order[self.source[e]])
            lines.append(f"{e}: {pairs}\n")
        return "".join(lines)

    def dot_text(self) -> str:
        lines = ["graph gkm {"] + [f'  "{v}";' for v in self.vertices]
        for e in self.darts:
            if e.endswith("~"):
                continue
            label = f"{vec(self.congruence(e))} / {vec(self.congruence(reverse(e)))}"
            lines.append(f'  "{self.source[e]}" -- "{self.target[e]}" [label="{label}"];')
        return "\n".join(lines + ["}"]) + "\n"


def rational_rank(rows: list[list[int]]) -> int:
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for j in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(rank, len(mat)) if mat[i][j]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][j] / mat[rank][j]
            mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def check_rank(out: str, truth: Truth, rank: int, basis: bool) -> str | None:
    lines = out.splitlines()
    head = [f"rank: {rank}", f"no effective torus of dimension > {rank} acts on this structure"]
    if lines[:2] != head:
        return f"expected {head[0]!r}, got {lines[:1]}"
    rows = lines[2:]
    if not basis:
        return None if not rows else "unexpected basis lines"
    if len(rows) != rank:
        return f"{len(rows)} basis rows for rank {rank}"
    elements = []
    for k, line in enumerate(rows, start=1):
        label, _, body = line.partition(": ")
        values = {v: tuple(int(x) for x in nums.split(", ")) for v, nums in RELATION_ROW.findall(body)}
        if label != f"f{k}" or sorted(values) != truth.vertices:
            return f"malformed basis row {k}"
        if not truth.relation_holds(values):
            return f"basis row {k} violates the defining relation"
        elements.append(values[truth.vertices[0]])
    if rational_rank([list(x) for x in elements]) != rank:
        return "basis rows are linearly dependent"
    return None


def check_validate_ok(out: str) -> str | None:
    lines = out.splitlines()
    if lines[:1] != ["connection: inferred from the weights"] or len(lines) != 5:
        return f"unexpected validate report: {lines[:2]}"
    for k, line in enumerate(lines[1:], start=1):
        if not (line.startswith(f"axiom {k} (") and line.endswith("): pass")):
            return f"axiom {k} not reported as pass"
    return None


def check_validate_corrupted(out: str, vertex: str) -> str | None:
    lines = out.splitlines()
    if not any(line.startswith("axiom 2 (") and "): FAIL" in line for line in lines):
        return "no FAIL line for axiom 2"
    if not any(line.startswith(f"  vertex {vertex}: ") for line in lines):
        return f"no axiom 2 witness at the corrupted vertex {vertex}"
    return None


def check_silent(out: str) -> str | None:
    """Commands that write a file print nothing."""
    return "unexpected output on stdout" if out else None


def check_exact(out: str, expected: str, what: str) -> str | None:
    if out == expected:
        return None
    got, want = out.splitlines(), expected.splitlines()
    k = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return f"{what} differs at line {k + 1}"


def projected_weights(w: list[int], v: list[int]) -> list[int]:
    """``π w`` for ``π = [I | v]``."""
    return [x + w[-1] * y for x, y in zip(w[:-1], v)]


def check_projected(path, original: dict, v: list[int]) -> str | None:
    doc = json.loads(path.read_text())
    if doc["torus_rank"] != original["torus_rank"] - 1:
        return "projected document has the wrong torus rank"
    want = {e["id"]: (e["endpoints"], projected_weights(e["weight"], v)) for e in original["edges"]}
    got = {e["id"]: (e["endpoints"], e["weight"]) for e in doc["edges"]}
    if got != want:
        return "projected weights differ from π·w"
    if doc["orderings"] != original["orderings"]:
        return "projection changed the orderings"
    if connection_from_document(doc) != connection_from_document(original):
        return "projection changed the connection"
    return None


def check_extended(path, projected_path) -> str | None:
    doc, base = json.loads(path.read_text()), json.loads(projected_path.read_text())
    n = base["torus_rank"]
    if doc["torus_rank"] != n + 1:
        return "extended document has the wrong torus rank"
    want = {e["id"]: (e["endpoints"], e["weight"]) for e in base["edges"]}
    got = {e["id"]: (e["endpoints"], e["weight"][:n]) for e in doc["edges"]}
    if got != want:
        return "the first coordinates of the extension do not reproduce the projected weights"
    if doc["orderings"] != base["orderings"]:
        return "extension changed the orderings"
    if connection_from_document(doc) != connection_from_document(base):
        return "extension changed the connection"
    return None


def check_extension_matrix(out: str, matrix: list[list[int]]) -> str | None:
    lines = out.splitlines()
    if lines[:1] != ["extension: yes"]:
        return f"expected 'extension: yes', got {lines[:1]}"
    rows = [[int(x) for x in line.split()] for line in lines[1:]]
    return None if rows == matrix else "the recovered projection is not the expected matrix"


def pi_rows(v: list[int]) -> list[list[int]]:
    k = len(v)
    return [[1 if j == i else 0 for j in range(k)] + [v[i]] for i in range(k)]


def projection_keeps_independence(doc: dict, v: list[int]) -> bool:
    """Whether ``project`` accepts ``π = [I | v]`` on a valid document.

    ``π`` is onto and linear, so the projected labeling keeps axioms 1, 3 and
    4; only pairwise independence at a vertex (axiom 2) can break.
    """
    out: dict[str, list[list[int]]] = {}
    for e in doc["edges"]:
        pw = projected_weights(e["weight"], v)
        a, b = e["endpoints"]
        out.setdefault(a, []).append(pw)
        out.setdefault(b, []).append([-x for x in pw])
    for weights in out.values():
        for i, a in enumerate(weights):
            pivot = next((k for k, x in enumerate(a) if x), None)
            if pivot is None:
                return False
            for b in weights[i + 1:]:
                if all(y * a[pivot] == x * b[pivot] for x, y in zip(a, b)):
                    return False
    return True
