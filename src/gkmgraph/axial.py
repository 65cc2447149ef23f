"""Axial weight labelings, the four axioms, and connection inference.

A GKM graph bundles an m-valent graph with a weight vector in ``Z^n`` per dart
and a connection: for each dart ``e`` a bijection between the out-darts of its
endpoints under which any out-dart ``e'`` changes weight by an integer
multiple of the weight of ``e`` (the congruence relation).  When every triple
of weights at a vertex is linearly independent the connection is forced and
can be inferred from the weights alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import GkmError
from .graph import OrientedGraph
from .intlinalg import IntegerMatrix, invariant_factors

Weight = tuple[int, ...]


class AxialError(GkmError):
    """Inconsistent axial data."""


class ConnectionNotFoundError(AxialError):
    """Some out-dart has no partner satisfying the congruence relation."""


class AmbiguousConnectionError(AxialError):
    """Several partners satisfy the congruence relation; supply the connection explicitly."""


class NotProportionalError(AxialError):
    """A weight difference is not an integer multiple of the base weight."""


@dataclass(frozen=True)
class AxialFunction:
    """Dart labeling by integer weight vectors of a fixed length."""

    torus_rank: int
    weights: Mapping[str, Weight]


@dataclass(frozen=True)
class Connection:
    """Per-dart bijections between the out-dart sets of the dart's endpoints."""

    maps: Mapping[str, Mapping[str, str]]

    def image(self, dart: str, out_dart: str) -> str:
        return self.maps[dart][out_dart]


@dataclass(frozen=True)
class GkmGraph:
    """A graph, an axial function, and a connection, used as one unit."""

    graph: OrientedGraph
    axial: AxialFunction
    connection: Connection

    @property
    def m(self) -> int:
        return self.graph.valence

    @property
    def n(self) -> int:
        return self.axial.torus_rank

    def weight(self, dart: str) -> Weight:
        return self.axial.weights[dart]

    def with_weights(self, weights: Mapping[str, Weight], torus_rank: int) -> "GkmGraph":
        """Same graph and connection with the weights replaced (not validated)."""
        return GkmGraph(self.graph, AxialFunction(torus_rank, dict(weights)), self.connection)


@dataclass(frozen=True)
class AxiomFailure:
    axiom: int
    where: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    """Pass/fail per axiom, with a witness for each failure."""

    checked: tuple[int, ...]
    failures: tuple[AxiomFailure, ...]

    AXIOM_NAMES = {
        1: "opposite darts carry opposite weights",
        2: "weights at each vertex are pairwise independent",
        3: "connection satisfies the congruence relation",
        4: "weights at each vertex span the full lattice",
    }

    @property
    def ok(self) -> bool:
        return not self.failures

    def passed(self, axiom: int) -> bool:
        return axiom in self.checked and all(f.axiom != axiom for f in self.failures)

    def failures_for(self, axiom: int) -> tuple[AxiomFailure, ...]:
        return tuple(f for f in self.failures if f.axiom == axiom)

    def summary(self) -> str:
        lines = []
        for axiom in self.checked:
            bad = self.failures_for(axiom)
            status = "pass" if not bad else f"FAIL ({len(bad)} witness{'es' if len(bad) > 1 else ''})"
            lines.append(f"axiom {axiom} ({self.AXIOM_NAMES[axiom]}): {status}")
            for f in bad:
                lines.append(f"  {f.where}: {f.detail}")
        return "\n".join(lines)


def _sub(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def _neg(a: Weight) -> Weight:
    return tuple(-x for x in a)


def _pairwise_dependent(a: Weight, b: Weight) -> bool:
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            if a[i] * b[j] != a[j] * b[i]:
                return False
    return True


def _ratio(diff: Weight, base: Weight) -> int | None:
    """Integer ``c`` with ``diff == c * base``, or ``None``."""
    pivot = next((i for i, x in enumerate(base) if x), None)
    if pivot is None:
        return 0 if not any(diff) else None
    q, r = divmod(diff[pivot], base[pivot])
    if r:
        return None
    if any(d != q * b for d, b in zip(diff, base)):
        return None
    return q


def check_labels(graph: OrientedGraph, axial: AxialFunction) -> None:
    """Raise :class:`AxialError` unless every dart carries a weight of length ``torus_rank``."""
    for d in graph.darts:
        w = axial.weights.get(d)
        if w is None:
            raise AxialError(f"dart {d} carries no weight")
        if len(w) != axial.torus_rank:
            raise AxialError(
                f"weight of dart {d} has length {len(w)}, expected {axial.torus_rank}"
            )


def validate_axial(
    graph: OrientedGraph,
    axial: AxialFunction,
    connection: Connection | None = None,
) -> ValidationReport:
    """Check the four axioms; axiom 3 only when a connection is supplied."""
    check_labels(graph, axial)
    w = axial.weights
    failures: list[AxiomFailure] = []
    checked = (1, 2, 3, 4) if connection is not None else (1, 2, 4)

    for e in graph.darts:
        eb = graph.reverse(e)
        if e < eb and w[eb] != _neg(w[e]):
            failures.append(AxiomFailure(1, f"dart {e}", f"weight of {eb} is not the negative of {w[e]}"))

    for p in graph.vertices:
        out = graph.out_darts(p)
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                if _pairwise_dependent(w[out[i]], w[out[j]]):
                    failures.append(
                        AxiomFailure(2, f"vertex {p}", f"darts {out[i]} and {out[j]} carry dependent weights")
                    )

    if connection is not None:
        failures.extend(_check_connection(graph, axial, connection))

    for p in graph.vertices:
        mat = IntegerMatrix.from_rows([w[d] for d in graph.out_darts(p)], axial.torus_rank)
        facs = invariant_factors(mat)
        if len(facs) != axial.torus_rank or any(f != 1 for f in facs):
            failures.append(AxiomFailure(4, f"vertex {p}", "weights do not span the integer lattice"))

    return ValidationReport(checked=checked, failures=tuple(failures))


def _check_connection(
    graph: OrientedGraph, axial: AxialFunction, connection: Connection
) -> list[AxiomFailure]:
    w = axial.weights
    failures: list[AxiomFailure] = []
    maps = connection.maps
    for e in graph.darts:
        nabla = maps.get(e)
        if nabla is None:
            failures.append(AxiomFailure(3, f"dart {e}", "connection has no map for this dart"))
            continue
        p, q = graph.source(e), graph.target(e)
        if set(nabla) != set(graph.out_darts(p)) or set(nabla.values()) != set(graph.out_darts(q)):
            failures.append(AxiomFailure(3, f"dart {e}", "map is not a bijection between the out-dart sets"))
            continue
        eb = graph.reverse(e)
        if nabla[e] != eb:
            failures.append(AxiomFailure(3, f"dart {e}", f"map must send {e} to {eb}"))
        back = maps.get(eb)
        if back is not None and any(back.get(img) != src for src, img in nabla.items()):
            failures.append(AxiomFailure(3, f"dart {e}", f"map for {eb} is not the inverse"))
        for e2, img in nabla.items():
            if _ratio(_sub(w[img], w[e2]), w[e]) is None:
                failures.append(
                    AxiomFailure(3, f"dart {e}", f"weight change of {e2} is not a multiple of the base weight")
                )
    return failures


def validate_gkm(gkm: GkmGraph) -> ValidationReport:
    return validate_axial(gkm.graph, gkm.axial, gkm.connection)


def infer_connection(graph: OrientedGraph, axial: AxialFunction) -> Connection:
    """Recover the unique connection compatible with the weights.

    For each dart ``e`` and out-dart ``e'`` at its source, the partner is the
    out-dart at the target whose weight differs from that of ``e'`` by an
    integer multiple of the weight of ``e``.  Requires axioms 1 and 2; a
    missing partner raises :class:`ConnectionNotFoundError`, several partners
    (possible when some weight triple is dependent) raise
    :class:`AmbiguousConnectionError`.
    """
    check_labels(graph, axial)
    w = axial.weights
    maps: dict[str, dict[str, str]] = {}
    for e in graph.darts:
        p, q = graph.source(e), graph.target(e)
        eb = graph.reverse(e)
        nabla = {e: eb}
        pool = [d for d in graph.out_darts(q) if d != eb]
        for e2 in graph.out_darts(p):
            if e2 == e:
                continue
            cands = [d for d in pool if _ratio(_sub(w[d], w[e2]), w[e]) is not None]
            if not cands:
                raise ConnectionNotFoundError(
                    f"dart {e2} at vertex {p} has no partner across dart {e}"
                )
            if len(cands) > 1:
                raise AmbiguousConnectionError(
                    f"dart {e2} at vertex {p} has {len(cands)} partners across dart {e}; "
                    "supply the connection explicitly"
                )
            nabla[e2] = cands[0]
        if len(set(nabla.values())) != graph.valence:
            raise ConnectionNotFoundError(
                f"the forced partners across dart {e} do not form a bijection"
            )
        maps[e] = nabla
    for e in graph.darts:
        back = maps[graph.reverse(e)]
        if any(back[img] != src for src, img in maps[e].items()):
            raise ConnectionNotFoundError(
                f"forced partners across {e} and its reverse are not mutually inverse"
            )
    return Connection(maps)


def congruence_coefficient(gkm: GkmGraph, e: str, e_prime: str) -> int:
    """The integer ``c`` with ``weight(image of e') - weight(e') == c * weight(e)``."""
    img = gkm.connection.image(e, e_prime)
    diff = _sub(gkm.weight(img), gkm.weight(e_prime))
    c = _ratio(diff, gkm.weight(e))
    if c is None:
        raise NotProportionalError(
            f"weight change of {e_prime} across {e} is not a multiple of the base weight"
        )
    return c
