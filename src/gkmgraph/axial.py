"""The four axioms and connection inference: the validation layer.

Every command that reads a document loads this module: ``validate`` reports
the axioms, and every other command reads a graph that passed them
(:func:`validated`).  The labeled graph it checks,
:class:`~gkmgraph.graph.GkmGraph`, is in :mod:`gkmgraph.graph`.

A GKM graph bundles an m-valent graph with a weight vector in ``Z^n`` per dart
and a connection: for each dart ``e`` a bijection between the out-darts of its
endpoints under which any out-dart ``e'`` changes weight by an integer
multiple of the weight of ``e`` (the congruence relation).  When every triple
of weights at a vertex is linearly independent the connection is forced and
can be inferred from the weights alone.

Weights are packed into one integer each (:func:`~gkmgraph.graph._packed`), once per
load: inference hands its packing on to validation.  Every congruence test
reads that packing, in one of two ways.  Inference alone
compares residues: a weight's class modulo ``Z·w(e)`` is the integer
:func:`_residue_key`, and inference runs one residue search per edge: under
``w(ē) = −w(e)`` the map of ``ē`` is the inverse of that of ``e``.  Axiom 3
divides, also once per edge: the first dart ``e`` of an edge takes one
``divmod`` of packed integers per out-dart, whose quotient must be exact and
at most ``2M`` in absolute value, and that quotient is the congruence
coefficient, which validation hands on (:class:`Validation`, held once per
graph as :attr:`~gkmgraph.graph.GkmGraph.validation`).  When ``e`` passes
against a map of ``ē`` that it finds to be its inverse and ``w(ē) = −w(e)``,
``ē`` passes too, and its coefficients are those of ``e`` permuted; otherwise
``ē`` is checked on its own (:func:`_check_connection`).  Axiom 2 compares
directions (:func:`_direction`), one per dart, pair by pair only at a vertex
where they are not all distinct and nonzero.  Axiom 4
reads one row HNF per vertex, or of one vertex once axiom 3 holds: then
``w(∇_e d) = w(d) + c·w(e)``, with ``e`` an out-dart at its own source, puts
the span of the weights at the target of ``e`` inside the span at its source,
and ``∇_ē`` gives the converse, so on a connected graph every vertex passes or
fails with the first.  None of these shortcuts changes the report.
"""

from __future__ import annotations

from math import gcd
from typing import Callable, Mapping, NamedTuple

from .graph import AxialError, AxialFunction, GkmError, GkmGraph, OrientedGraph, Weight, _packed


Maps = Mapping[str, Mapping[str, str]]


class ConnectionNotFoundError(AxialError):
    """Some out-dart has no partner satisfying the congruence relation."""


class AmbiguousConnectionError(AxialError):
    """Several partners satisfy the congruence relation; supply the connection explicitly."""


class AxiomFailure(NamedTuple):
    axiom: int
    where: str
    detail: str


class ValidationReport(NamedTuple):
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


def _first_failure(report: ValidationReport) -> str:
    """One line naming the first failed axiom of ``report`` and where it fails."""
    f = report.failures[0]
    return f"axiom {f.axiom} fails at {f.where}: {f.detail} (witness 1 of {len(report.failures)})"


class AxiomViolationError(GkmError):
    """A labeling fails the axioms; the message names the first failure."""

    @classmethod
    def from_report(cls, report: ValidationReport) -> "AxiomViolationError":
        return cls(_first_failure(report))


class Validation(NamedTuple):
    """A report, and the congruence vector of every dart whose map is a bijection.

    Entry ``j`` of the vector of ``e`` is the integer ``c`` with ``w(∇_e d) − w(d) = c·w(e)``
    for the ``j``-th out-dart ``d`` at the source of ``e``, or ``None`` where there is none.
    """

    report: ValidationReport
    coefficients: dict[str, tuple[int | None, ...]]


def _direction(v: Weight) -> Weight | None:
    """``v`` divided by the gcd of its entries, first nonzero entry positive; ``None`` for zero.

    Two nonzero weights are linearly dependent exactly when their directions
    are equal; a zero weight is dependent on every weight.
    """
    g = gcd(*v)
    if not g:
        return None
    if next(x for x in v if x) < 0:
        g = -g
    return tuple([x // g for x in v])


def _residue_key(packed: Mapping[str, int], w: Mapping[str, Weight], e: str) -> Callable[[str], int]:
    """Key of a dart's weight modulo ``Z·w(e)``, for :func:`infer_connection`.

    Two darts get equal keys exactly when their weights differ by an integer
    multiple of ``w(e)``.  With ``p`` the first nonzero coordinate of
    ``w(e)``, the key of ``d`` is the packed residue
    ``w(d) − (w(d)[p] // w(e)[p])·w(e)``, and the packed ``w(d)`` when
    ``w(e)`` is zero.  Flooring makes congruent weights share one residue.
    The quotient is at most ``M`` in absolute value, so each residue entry is
    at most ``M(M+1)``, and :func:`_packed` tells residues apart exactly.
    """
    for p, b in enumerate(w[e]):
        if b:
            pe = packed[e]
            return lambda d: packed[d] - (w[d][p] // b) * pe
    return packed.__getitem__


def validate_axial(graph: OrientedGraph, axial: AxialFunction, connection: Maps | None = None) -> ValidationReport:
    """Check the four axioms; axiom 3 only when a connection (a map per dart) is supplied."""
    return _validate(graph, axial, connection).report


def validate_gkm(gkm: GkmGraph) -> ValidationReport:
    """The report of ``gkm``, computed once per graph (:attr:`~gkmgraph.graph.GkmGraph.validation`)."""
    return gkm.validation.report


def validated(gkm: GkmGraph) -> GkmGraph:
    """``gkm`` itself when it passes the four axioms; otherwise :class:`AxiomViolationError`."""
    report = validate_gkm(gkm)
    if not report.ok:
        raise AxiomViolationError.from_report(report)
    return gkm


def _validate(graph: OrientedGraph, axial: AxialFunction, connection: Maps | None, packing=None) -> Validation:
    packing = packing or _packed(axial, graph.darts)  # which checks that every dart carries a weight
    w, packed = axial.weights, packing[0]
    failures: list[AxiomFailure] = []
    checked = (1, 2, 3, 4) if connection is not None else (1, 2, 4)

    for e in graph.darts:
        eb = graph.reverse(e)
        if e < eb and packed[eb] != -packed[e]:  # packing is linear and exact: w(ē) = −w(e)
            failures.append(AxiomFailure(1, f"dart {e}", f"weight of {eb} is not the negative of {w[e]}"))

    for p in graph.vertices:
        out = graph.out_darts(p)
        dirs = [_direction(w[d]) for d in out]
        if None not in dirs and len(set(dirs)) == len(dirs):
            continue
        for i, a in enumerate(dirs):
            for j in range(i + 1, len(out)):
                if a is None or a == dirs[j] or dirs[j] is None:
                    failures.append(
                        AxiomFailure(2, f"vertex {p}", f"darts {out[i]} and {out[j]} carry dependent weights")
                    )

    coefficients = {} if connection is None else _check_connection(graph, connection, packing, failures)

    from .hermite import _spans

    spans_agree = connection is not None and all(f.axiom != 3 for f in failures)
    tested = graph.vertices[:1] if spans_agree else graph.vertices
    bad = [p for p in tested if not _spans([w[d] for d in graph.out_darts(p)], axial.torus_rank)]
    if spans_agree and bad:
        bad = graph.vertices
    failures.extend(AxiomFailure(4, f"vertex {p}", "weights do not span the integer lattice") for p in bad)

    return Validation(ValidationReport(checked=checked, failures=tuple(failures)), coefficients)


def _check_connection(graph: OrientedGraph, maps: Maps, packing: tuple[dict, int], failures: list[AxiomFailure]):
    """Append the failures of axiom 3; return the congruence vector of each dart whose map is a bijection.

    The first dart of an edge gets the full check (:func:`_check_dart`).  When
    it passes with no failure, its inverse check ran against a map of ``m``
    entries, and ``w(ē) = −w(e)``, that map is a bijection sending ``ē`` to
    ``e`` whose own inverse check passes, and the coefficients of ``ē`` are
    those of ``e`` read through it: ``c(ē)`` at ``d`` is ``c(e)`` at ``∇_ē(d)``.
    Any other second dart gets the full check too, so the failures and their
    order are those of checking every dart.
    """
    packed, big = packing
    outs = {v: set(graph.out_darts(v)) for v in graph.vertices}
    index = graph.positions
    coefficients = {}
    proved: set[str] = set()  # second darts whose vectors the first dart's check proved
    for e in graph.darts:
        eb = graph.reverse(e)
        if e in proved and packed[e] == -packed[eb]:
            proved.discard(e)
            images = map(maps[e].__getitem__, graph.out_darts(graph.source(e)))
            coefficients[e] = tuple(map(coefficients[eb].__getitem__, map(index.__getitem__, images)))
            continue
        before = len(failures)
        vector = _check_dart(graph, maps, e, packed, 2 * big, outs, failures)
        if vector is None:
            continue
        coefficients[e] = vector
        back = maps.get(eb)
        if len(failures) == before and back is not None and len(back) == graph.valence:
            proved.add(eb)
    return coefficients


def _check_dart(
    graph: OrientedGraph,
    maps: Maps,
    e: str,
    packed: Mapping[str, int],
    bound: int,
    outs: Mapping[str, set[str]],
    failures: list[AxiomFailure],
) -> tuple[int | None, ...] | None:
    """Axiom 3 at dart ``e``: append its failures; return its congruence vector, ``None`` off a bijection.

    A coefficient is one ``divmod`` of packed integers, whose quotient must be
    exact and at most ``bound`` (``2M``: a weight change ``q·w(e)`` has ``|q| <= 2M``).
    """
    nabla = maps.get(e)
    if nabla is None:
        failures.append(AxiomFailure(3, f"dart {e}", "connection has no map for this dart"))
        return None
    if nabla.keys() != outs[graph.source(e)] or set(nabla.values()) != outs[graph.target(e)]:
        failures.append(AxiomFailure(3, f"dart {e}", "map is not a bijection between the out-dart sets"))
        return None
    eb = graph.reverse(e)
    if nabla[e] != eb:
        failures.append(AxiomFailure(3, f"dart {e}", f"map must send {e} to {eb}"))
    back = maps.get(eb)
    if back is not None and list(map(back.get, nabla.values())) != list(nabla):
        failures.append(AxiomFailure(3, f"dart {e}", f"map for {eb} is not the inverse"))
    base = packed[e]
    index = graph.positions
    vector: list[int | None] = [None] * graph.valence
    for e2, img in nabla.items():
        change = packed[img] - packed[e2]
        q, r = divmod(change, base) if base else (0, change)
        if r or not -bound <= q <= bound:
            failures.append(
                AxiomFailure(3, f"dart {e}", f"weight change of {e2} is not a multiple of the base weight")
            )
        else:
            vector[index[e2]] = q
    return tuple(vector)


def infer_connection(graph: OrientedGraph, axial: AxialFunction) -> dict[str, dict[str, str]]:
    """Recover the unique connection compatible with the weights.

    For each dart ``e`` and out-dart ``e'`` at its source, the partner is the
    out-dart at the target whose weight differs from that of ``e'`` by an
    integer multiple of the weight of ``e``: one dict probe on the
    :func:`_residue_key` of the target's out-darts.  One search per edge: when
    ``w(ē) = −w(e)`` the same residue classes pair the same darts, so ``∇_ē``
    is the inverse of ``∇_e``; otherwise ``∇_ē`` is searched too and must be
    that inverse.  Requires axioms 1 and 2; a missing partner or two searches
    that are not mutually inverse raise :class:`ConnectionNotFoundError`,
    several partners (possible when some weight triple is dependent) raise
    :class:`AmbiguousConnectionError`.
    """
    return _inferred(graph, axial).connection


def _inferred(graph: OrientedGraph, axial: AxialFunction) -> GkmGraph:
    """The graph with the connection :func:`infer_connection` finds; its validation takes the packing read here."""
    packing = _packed(axial, graph.darts)
    w, packed, maps = axial.weights, packing[0], {}
    for e in graph.darts:
        p, q = graph.source(e), graph.target(e)
        eb = graph.reverse(e)
        back = maps.get(eb)
        if back is not None and packed[e] + packed[eb] == 0:  # packing is linear and exact: w(e) = −w(ē)
            inverse = {img: src for src, img in back.items()}
            maps[e] = {e: eb, **{d: inverse[d] for d in graph.out_darts(p)}}
            continue
        key = _residue_key(packed, w, e)
        partners: dict[int, list[str]] = {}
        for d in graph.out_darts(q):
            if d != eb:
                partners.setdefault(key(d), []).append(d)
        nabla = {e: eb}
        for e2 in graph.out_darts(p):
            if e2 == e:
                continue
            cands = partners.get(key(e2))
            if not cands:
                raise ConnectionNotFoundError(f"dart {e2} at vertex {p} has no partner across dart {e}")
            if len(cands) > 1:
                raise AmbiguousConnectionError(
                    f"dart {e2} at vertex {p} has {len(cands)} partners across dart {e}; "
                    "supply the connection explicitly"
                )
            nabla[e2] = cands[0]
        if len(set(nabla.values())) != graph.valence:
            raise ConnectionNotFoundError(f"the forced partners across dart {e} do not form a bijection")
        if back is not None and any(back[img] != src for src, img in nabla.items()):
            raise ConnectionNotFoundError(
                f"forced partners across {eb} and its reverse are not mutually inverse"
            )
        maps[e] = nabla
    gkm = GkmGraph(graph, axial, maps)
    gkm.__dict__["_packing"] = packing  # until GkmGraph.validation takes it
    return gkm
