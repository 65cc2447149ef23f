"""Workloads: their documents, their set-up, and the commands of each round.

Set-up runs ``gkmgraph gen`` for every document, then renames vertex and edge
ids with a permutation drawn from the seed (this moves the sort order, the
base vertex and the BFS tree, never an answer), strips connections where the
workload infers them, corrupts documents and draws projection matrices.  The
program only ever reads the documents written here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

import oracle
from proc import run_cli

V_CHOICES = (-2, -1, 1, 2, 3)
PI_POOL = 6
PI_ATTEMPTS = 1000


class SetupError(RuntimeError):
    """The inputs could not be built; the run prints no result."""


@dataclass(frozen=True)
class DocSpec:
    family: str
    size: int = 0

    @property
    def key(self) -> str:
        return self.family if self.family == "s6" else f"{self.family}-{self.size}"

    @property
    def gen_args(self) -> list[str]:
        if self.family == "s6":
            return ["s6"]
        return [self.family, "--m" if self.family == "projective" else "--n", str(self.size)]

    @property
    def rank(self) -> int:
        """Closed-form rank of the solution lattice."""
        return {"s6": 2, "projective": self.size, "grassmannian": self.size + 1}[self.family]


S6 = DocSpec("s6")


def projective(m: int) -> DocSpec:
    return DocSpec("projective", m)


def grassmannian(n: int) -> DocSpec:
    return DocSpec("grassmannian", n)


@dataclass(frozen=True)
class Workload:
    name: str
    docs: tuple[DocSpec, ...]
    # Rounds run in blocks of this many, until --seconds have passed.  One
    # block outlasts the usual --seconds, so the sample count, the tail
    # percentile and, in extend-roundtrip, the use of each pooled π (once per
    # block) are the same on every run.
    block_rounds: int
    # Rename vertices without changing their sort order.  Whether ``extend``
    # hits the recorded defect depends on the vertex order, and a shuffled
    # order moved the number of hits per run from 4 to 15 between seeds.
    keep_vertex_order: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rank-pinned", (S6, projective(12), grassmannian(6), grassmannian(9), grassmannian(12)), 3),
        Workload("infer-validate", (projective(16), projective(20), grassmannian(9)), 2),
        Workload(
            "extend-roundtrip", (projective(8), projective(12), projective(16), grassmannian(4)), PI_POOL,
            keep_vertex_order=True,
        ),
    )
}

# The smallest documents that go through every command path of each workload.
# s6 has no unique connection and no projection keeping its weights
# independent, so it only appears where neither is needed.
SMOKE_DOCS = {
    "rank-pinned": (S6, projective(3), grassmannian(2)),
    "infer-validate": (projective(3), grassmannian(2)),
    "extend-roundtrip": (projective(3), grassmannian(2)),
}


@dataclass
class Prepared:
    """One document of a workload, as the program sees it and as the checks know it."""

    spec: DocSpec
    path: Path
    pinned: dict
    edge_names: dict[str, str]
    stripped: bool
    bad_path: Path | None = None
    bad_vertex: str | None = None
    pis: list[list[int]] = field(default_factory=list)

    @cached_property
    def truth(self) -> oracle.Truth:
        if not self.stripped:
            conn = oracle.connection_from_document(self.pinned)
            return oracle.Truth(self.pinned, conn, self.pinned["orderings"])
        if self.spec.family == "projective":
            conn = oracle.projective_connection(self.spec.size, self.edge_names)
        else:
            conn = oracle.connection_from_document(self.pinned)
        return oracle.Truth(self.pinned, conn, None)


@dataclass
class Inputs:
    docs: dict[str, Prepared]
    bad_offset: int


def rename(doc: dict, rng: random.Random, keep_vertex_order: bool = False) -> tuple[dict, dict[str, str]]:
    """Relabel vertices and edges by a seeded permutation and shuffle the lists.

    Returns the new document and the map from old to new edge ids.
    """
    vs, es = doc["vertices"], [e["id"] for e in doc["edges"]]
    if keep_vertex_order:
        tokens = sorted(rng.sample(range(10_000), len(vs)))
        vnew = dict(zip(sorted(vs), (f"v{k:04d}" for k in tokens)))
    else:
        vnew = dict(zip(vs, (f"v{k:04d}" for k in rng.sample(range(len(vs)), len(vs)))))
    enew = dict(zip(es, (f"e{k:05d}" for k in rng.sample(range(len(es)), len(es)))))

    def dart(d: str) -> str:
        return enew[d[:-1]] + "~" if d.endswith("~") else enew[d]

    edges = [
        {"id": enew[e["id"]], "endpoints": [vnew[x] for x in e["endpoints"]], "weight": e["weight"]}
        for e in doc["edges"]
    ]
    out = {
        "torus_rank": doc["torus_rank"],
        "vertices": rng.sample(list(vnew.values()), len(vs)),
        "edges": rng.sample(edges, len(edges)),
        "connection": [
            {"dart": dart(c["dart"]), "maps": [[dart(a), dart(b)] for a, b in c["maps"]]}
            for c in doc["connection"]
        ],
        "orderings": {vnew[v]: [dart(d) for d in order] for v, order in doc["orderings"].items()},
    }
    return out, enew


def strip(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k not in ("connection", "orderings")}


def corrupt(doc: dict, rng: random.Random) -> tuple[dict, str]:
    """Give one out-dart at a vertex the weight of another: axiom 2 fails there."""
    edge = rng.choice(doc["edges"])
    side = rng.randrange(2)
    vertex = edge["endpoints"][side]
    others = [e for e in doc["edges"] if e is not edge and vertex in e["endpoints"]]
    other = rng.choice(others)
    sign = (1 if side == 0 else -1) * (1 if other["endpoints"][0] == vertex else -1)
    edges = [
        dict(e, weight=[sign * x for x in other["weight"]]) if e is edge else e
        for e in doc["edges"]
    ]
    return dict(doc, edges=edges), vertex


def draw_pis(spec: DocSpec, doc: dict, rng: random.Random) -> list[list[int]]:
    """``v`` for ``π = [I | v]``, redrawn only when ``project`` would reject ``π``.

    The pool is drawn from a stream fixed per document and only its order comes
    from the seed.  Whether ``extend`` hits the recorded defect depends on
    ``π``, so a pool drawn per seed made the number of hits, and with it the
    tail latency, differ from run to run by more than any useful bound.
    """
    n = doc["torus_rank"]
    draw = random.Random(f"pi/{spec.key}")
    pis = []
    for _ in range(PI_ATTEMPTS):
        v = [draw.choice(V_CHOICES) for _ in range(n - 1)]
        if oracle.projection_keeps_independence(doc, v):
            pis.append(v)
            if len(pis) == PI_POOL:
                return rng.sample(pis, len(pis))
    raise SetupError(f"no projection in {PI_ATTEMPTS} draws keeps the weights independent")


def set_up(workload: Workload, docs: tuple[DocSpec, ...], seed: int, work: Path) -> Inputs:
    rng = random.Random(f"{workload.name}/{seed}")
    gen_dir, in_dir = work / "gen", work / "in"
    gen_dir.mkdir(parents=True, exist_ok=True)
    in_dir.mkdir(parents=True, exist_ok=True)
    stripped = workload.name == "infer-validate"
    prepared = {}
    for spec in docs:
        gen_path = gen_dir / f"{spec.key}.json"
        child = run_cli(
            ["gen", *spec.gen_args, "-o", str(gen_path)],
            gen_dir / f"{spec.key}.out", gen_dir / f"{spec.key}.err",
        )
        if child.rc != 0:
            raise SetupError(f"gkmgraph gen {spec.key} exited {child.rc}: {child.err()[-300:]}")
        pinned, edge_names = rename(json.loads(gen_path.read_text(encoding="utf-8")), rng, workload.keep_vertex_order)
        doc = Prepared(spec, in_dir / f"{spec.key}.json", pinned, edge_names, stripped)
        doc.path.write_text(json.dumps(strip(pinned) if stripped else pinned), encoding="utf-8")
        if stripped:
            bad, doc.bad_vertex = corrupt(strip(pinned), rng)
            doc.bad_path = in_dir / f"{spec.key}.bad.json"
            doc.bad_path.write_text(json.dumps(bad), encoding="utf-8")
        if workload.name == "extend-roundtrip":
            doc.pis = draw_pis(spec, pinned, rng)
        prepared[spec.key] = doc
    return Inputs(prepared, rng.randrange(len(docs)))


@dataclass
class Command:
    id: str
    kind: str
    doc: str
    args: list[str]
    check: Callable[[str], str | None]
    expect_rc: int = 0
    after: str | None = None


def _rank_round(inputs: Inputs) -> list[list[Command]]:
    chains = []
    for key, doc in inputs.docs.items():
        for basis in (False, True):
            chains.append([Command(
                "", "rank --basis" if basis else "rank", key,
                ["rank", str(doc.path), *(["--basis"] if basis else [])],
                lambda out, doc=doc, basis=basis: oracle.check_rank(out, doc.truth, doc.spec.rank, basis),
            )])
    return chains


def _infer_round(inputs: Inputs, r: int) -> list[list[Command]]:
    chains = []
    for key, doc in inputs.docs.items():
        path = str(doc.path)
        chains += [
            [Command("", "validate", key, ["validate", path], oracle.check_validate_ok)],
            [Command("", "connection", key, ["connection", path],
                     lambda out, t=doc.truth: oracle.check_exact(out, t.connection_text(), "connection"))],
            [Command("", "invariant", key, ["invariant", path],
                     lambda out, t=doc.truth: oracle.check_exact(out, t.invariant_text(), "invariant"))],
            [Command("", "dot", key, ["dot", path, "--annotate", "congruence"],
                     lambda out, t=doc.truth: oracle.check_exact(out, t.dot_text(), "dot"))],
        ]
    keys = list(inputs.docs)
    bad = inputs.docs[keys[(inputs.bad_offset + r) % len(keys)]]
    chains.append([Command(
        "", "validate corrupted", bad.spec.key, ["validate", str(bad.bad_path)],
        lambda out, v=bad.bad_vertex: oracle.check_validate_corrupted(out, v), expect_rc=1,
    )])
    return chains


def _extend_round(inputs: Inputs, r: int, d: Path) -> list[list[Command]]:
    chains = []
    for key, doc in inputs.docs.items():
        v = doc.pis[r % len(doc.pis)]
        n = doc.pinned["torus_rank"]
        proj, ext = d / f"{key}.proj.json", d / f"{key}.ext.json"
        matrix = "; ".join(" ".join(str(x) for x in row) for row in oracle.pi_rows(v))
        keep = [[1 if j == i else 0 for j in range(n)] for i in range(n - 1)]
        chains.append([
            Command("", "project", key, ["project", str(doc.path), "--matrix", matrix, "-o", str(proj)],
                    lambda out, doc=doc, v=v, proj=proj:
                    oracle.check_silent(out) or oracle.check_projected(proj, doc.pinned, v)),
            Command("", "extend", key, ["extend", str(proj), "--target", str(n), "-o", str(ext)],
                    lambda out, ext=ext, proj=proj: oracle.check_silent(out) or oracle.check_extended(ext, proj),
                    after="project"),
            Command("", "check-extension extended", key, ["check-extension", str(proj), str(ext)],
                    lambda out, keep=keep: oracle.check_extension_matrix(out, keep), after="extend"),
            Command("", "check-extension original", key, ["check-extension", str(proj), str(doc.path)],
                    lambda out, v=v: oracle.check_extension_matrix(out, oracle.pi_rows(v)), after="project"),
        ])
    return chains


def plan_round(workload: Workload, inputs: Inputs, seed: int, r: int, d: Path) -> list[Command]:
    """The commands of round ``r`` in a seeded order that keeps each chain in order."""
    d.mkdir(parents=True, exist_ok=True)
    if workload.name == "rank-pinned":
        chains = _rank_round(inputs)
    elif workload.name == "infer-validate":
        chains = _infer_round(inputs, r)
    else:
        chains = _extend_round(inputs, r, d)
    rng = random.Random(f"{workload.name}/{seed}/round{r}")
    order: list[Command] = []
    while chains:
        chain = rng.choice(chains)
        order.append(chain.pop(0))
        if not chain:
            chains.remove(chain)
    ids = {}
    for k, cmd in enumerate(order):
        cmd.id = f"{d.name}.{k}"
        ids[(cmd.doc, cmd.kind)] = cmd.id
    for cmd in order:
        if cmd.after is not None:
            cmd.after = ids[(cmd.doc, cmd.after)]
    return order
