import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmgraph import (
    AmbiguousConnectionError,
    AxialFunction,
    AxiomFailure,
    AxiomViolationError,
    ConnectionNotFoundError,
    GkmGraph,
    build_graph,
    document_from_gkm,
    gen_grassmannian,
    gen_projective,
    gen_s6,
    gkm_from_document,
    infer_connection,
    invariant_function,
    validate_axial,
    validate_gkm,
)
from gkmgraph.axial import _residue_key
from gkmgraph.graph import AxialError, _packed
from gkmgraph.io import labels_from_document, parse_gkm
from helpers import (
    TWISTED_S6,
    bent_documents,
    coefficients_by_division,
    core_fixtures,
    infer_connection_by_scan,
    pairwise_dependent,
    rational_rank,
    ratio,
    shuffled_orderings,
    validation_by_residues,
    validation_checking_every_vertex,
    weight_ratio,
    with_orderings,
)


def test_fixtures_pass_all_axioms():
    for name, gkm in core_fixtures().items():
        report = validate_gkm(gkm)
        assert report.ok, f"{name}: {report.summary()}"
        assert report.checked == (1, 2, 3, 4)


def test_axiom1_failure_names_the_dart():
    gkm = gen_s6()
    weights = dict(gkm.axial.weights)
    weights["e2~"] = weights["e2"]  # same sign on both orientations
    report = validate_axial(gkm.graph, AxialFunction(2, weights))
    assert not report.passed(1)
    (failure,) = report.failures_for(1)
    assert failure.where == "dart e2"


@pytest.mark.parametrize("delta", [(1, 0), (0, 1), (0, -2), (16, -1)])
def test_axiom1_fails_when_any_coordinate_breaks_the_negation(delta):
    # axiom 1 compares packed weights: one coordinate off fails, and so does a
    # change that a packing 4 bits wide (enough for s6's own entries) would carry away
    gkm = gen_s6()
    weights = dict(gkm.axial.weights)
    weights["e2~"] = tuple(x + d for x, d in zip(weights["e2~"], delta))
    report = validate_axial(gkm.graph, AxialFunction(2, weights))
    detail = f"weight of e2~ is not the negative of {weights['e2']}"
    assert report.failures_for(1) == (AxiomFailure(1, "dart e2", detail),)


def test_axiom2_failure_at_every_vertex():
    graph = build_graph(["p", "q", "r"], [("pq", "p", "q"), ("qr", "q", "r"), ("rp", "r", "p")])
    weights = {d: (1, 0) if not d.endswith("~") else (-1, 0) for d in graph.darts}
    report = validate_axial(graph, AxialFunction(2, weights))
    vertices = {f.where for f in report.failures_for(2)}
    assert vertices == {"vertex p", "vertex q", "vertex r"}


def test_connection_without_a_dart_s_map_fails_axiom3_there():
    gkm = gen_s6()
    maps = {e: nabla for e, nabla in gkm.connection.items() if e != "e2~"}
    report = validate_axial(gkm.graph, gkm.axial, maps)
    assert report.failures_for(3) == (AxiomFailure(3, "dart e2~", "connection has no map for this dart"),)
    assert report == validation_by_residues(gkm.graph, gkm.axial, maps)


def test_axiom4_distinguishes_integer_and_rational_span():
    base = gen_projective(2)
    weights = {d: tuple(2 * x for x in base.weight(d)) for d in base.graph.darts}
    axial = AxialFunction(2, weights)
    assert not validate_axial(base.graph, axial).passed(4)
    # the doubled weights still span over the rationals, so only the integer span fails
    g = base.graph
    assert all(rational_rank([weights[d] for d in g.out_darts(p)]) == 2 for p in g.vertices)


VALIDATION_DOCUMENTS = {
    **{name: document_from_gkm(gkm) for name, gkm in core_fixtures().items()},
    "grassmannian4": document_from_gkm(gen_grassmannian(4)),
    "twisted_s6": parse_gkm(TWISTED_S6),
}


def _mutated(doc, mutations):
    """``doc`` after each mutation in turn, assembled with its pinned connection.

    ``("bend", i, k, delta)`` adds ``delta`` to entry ``k`` of edge ``i``'s
    weight; ``("swap", i, a, b)`` swaps the images of out-darts ``a`` and
    ``b`` in the map of connection entry ``i``; ``("scale", v, factor)``
    multiplies the weights of the edges at vertex ``v``, so that its weights
    span ``factor·Z^n`` at most.  Three mutations reach the reverse dart ``ē``
    of edge ``i`` alone, after assembly: ``("swap-reverse", i, j, k)`` swaps
    the images of the ``j``-th and ``k``-th out-darts in the map of ``ē``,
    ``("extend-reverse", i)`` adds a pair from a dart that does not exist to
    that map, and ``("reverse-weight", i, factor, k, delta)`` gives ``ē`` the
    weight ``factor·w(e)`` plus ``delta`` at entry ``k``, through ``AxialFunction``.
    """
    edges, entries = list(doc.edges), {d: dict(images) for d, images in doc.connection.items()}
    one_sided = []
    for kind, *args in mutations:
        if kind == "bend":
            i, k, delta = args
            w = list(edges[i].weight)
            w[k] += delta
            edges[i] = edges[i]._replace(weight=tuple(w))
        elif kind == "swap":
            i, a, b = args
            images = entries[list(entries)[i]]
            images[a], images[b] = images[b], images[a]
        elif kind == "scale":
            v, factor = args
            edges = [e._replace(weight=tuple(factor * x for x in e.weight)) if v in (e.source, e.target) else e
                     for e in edges]
        else:
            one_sided.append((kind, *args))
    gkm = gkm_from_document(doc._replace(edges=tuple(edges), connection=entries))
    weights, maps = dict(gkm.axial.weights), dict(gkm.connection)
    for kind, i, *args in one_sided:
        e = doc.edges[i].id
        eb = gkm.graph.reverse(e)
        if kind == "swap-reverse":
            j, k = args
            a, b = (gkm.graph.out_darts(gkm.graph.source(eb))[x] for x in (j, k))
            images = maps[eb] = dict(maps[eb])
            images[a], images[b] = images[b], images[a]
        elif kind == "extend-reverse":
            maps[eb] = {**maps[eb], "nonexistent": e}
        else:
            factor, k, delta = args
            w = [factor * x for x in weights[e]]
            w[k] += delta
            weights[eb] = tuple(w)
    return GkmGraph(gkm.graph, AxialFunction(gkm.n, weights), maps)


@st.composite
def _mutations(draw):
    name = draw(st.sampled_from(sorted(VALIDATION_DOCUMENTS)))
    doc = VALIDATION_DOCUMENTS[name]
    m = len(next(iter(doc.connection.values())))
    mutations = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["bend", "swap", "scale", "swap-reverse", "extend-reverse", "reverse-weight"]))
        if kind == "bend":
            i = draw(st.integers(0, len(doc.edges) - 1))
            mutations.append(("bend", i, draw(st.integers(0, doc.torus_rank - 1)), draw(st.sampled_from((-2, -1, 1, 2)))))
        elif kind == "swap" and m > 1:
            i = draw(st.integers(0, len(doc.connection) - 1))
            images = list(doc.connection.values())[i]
            a, b = draw(st.lists(st.sampled_from(sorted(images)), min_size=2, max_size=2, unique=True))
            mutations.append(("swap", i, a, b))
        elif kind == "scale":
            mutations.append(("scale", draw(st.sampled_from(doc.vertices)), draw(st.sampled_from((2, 3, -2)))))
        elif kind == "swap-reverse" and m > 1:
            i = draw(st.integers(0, len(doc.edges) - 1))
            j, k = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
            mutations.append(("swap-reverse", i, j, k))
        elif kind == "extend-reverse":
            mutations.append(("extend-reverse", draw(st.integers(0, len(doc.edges) - 1))))
        elif kind == "reverse-weight":
            i = draw(st.integers(0, len(doc.edges) - 1))
            factor, delta = draw(st.sampled_from([(f, d) for f in (-1, 1, 2) for d in (-1, 0, 1) if (f, d) != (-1, 0)]))
            mutations.append(("reverse-weight", i, factor, draw(st.integers(0, doc.torus_rank - 1)), delta))
    return name, mutations


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=_mutations())
def test_validation_matches_the_residue_and_smith_oracle(case):
    # axiom 3 divides packed weights once per edge and axiom 4 reads one HNF
    # per vertex; the report, every failure in the same order, is the one
    # residues and Smith invariant factors give, with and without the
    # connection, and the congruence vectors are those of dividing every dart
    # on its own, also where a mutation reaches only the reverse of an edge
    name, mutations = case
    gkm = _mutated(VALIDATION_DOCUMENTS[name], mutations)
    for connection in (gkm.connection, None):
        assert validate_axial(gkm.graph, gkm.axial, connection) == validation_by_residues(
            gkm.graph, gkm.axial, connection
        )
    assert validate_gkm(gkm) == validation_checking_every_vertex(gkm.graph, gkm.axial, gkm.connection)
    assert gkm.validation.coefficients == coefficients_by_division(gkm.graph, gkm.axial, gkm.connection)


def test_coefficients_match_the_division_oracle():
    # on every fixture, with its pinned connection and with the inferred one,
    # the vectors validation hands on are those of dividing every dart on its own
    fixtures = {name: gkm_from_document(doc) for name, doc in VALIDATION_DOCUMENTS.items()}
    inferred = {name: GkmGraph(g.graph, g.axial, infer_connection(g.graph, g.axial)) for name, g in core_fixtures().items()}
    for name, gkm in [*fixtures.items(), *inferred.items()]:
        coefficients = gkm.validation.coefficients
        assert coefficients == coefficients_by_division(gkm.graph, gkm.axial, gkm.connection), name
        assert len(coefficients) == len(gkm.graph.darts), name


def test_one_sided_mutations_reach_both_checks_of_an_edge():
    # a reverse dart takes its vector from its forward dart only when that
    # dart passes against its map and w(ē) = −w(e); the one-sided mutations
    # fail the forward dart's inverse check, or leave it passing while the
    # reverse dart fails its own check or passes it with w(ē) = w(e)
    doc = VALIDATION_DOCUMENTS["projective3"]
    e = doc.edges[0].id
    cases = [
        ([("swap-reverse", 0, 0, 1)], {e, e + "~"}),
        ([("extend-reverse", 0)], {e + "~"}),
        ([("reverse-weight", 0, 2, 0, 0)], {e + "~"}),
        ([("reverse-weight", 0, 1, 0, 0)], set()),
    ]
    for mutations, failing in cases:
        gkm = _mutated(doc, mutations)
        report = validate_gkm(gkm)
        assert not report.passed(3)
        assert {f.where for f in report.failures_for(3)} & {f"dart {e}", f"dart {e}~"} == {f"dart {d}" for d in failing}
        assert report == validation_by_residues(gkm.graph, gkm.axial, gkm.connection)
        coefficients = gkm.validation.coefficients
        assert coefficients == coefficients_by_division(gkm.graph, gkm.axial, gkm.connection)
        assert None not in coefficients[e]


def test_each_mutation_reaches_the_axiom_it_breaks():
    # the mutations of the oracle test fail the axioms they aim at: a bent
    # weight and swapped images the congruence, a scaled vertex the integer
    # span, and the twisted s6 the rule e -> ē
    doc = VALIDATION_DOCUMENTS["projective3"]
    a, b = sorted(doc.connection["0-1"])[:2]
    cases = [
        ("twisted_s6", [], AxiomFailure(3, "dart e2", "map must send e2 to e2~")),
        ("projective3", [("bend", 0, 1, 1)], AxiomFailure(3, "dart 0-1", "weight change of 0-2 is not a multiple of the base weight")),
        ("projective3", [("swap", 0, a, b)], AxiomFailure(3, f"dart {a}", f"map must send {a} to {a}~")),
        ("projective3", [("scale", doc.vertices[0], 2)], AxiomFailure(4, f"vertex {doc.vertices[0]}", "weights do not span the integer lattice")),
    ]
    for name, mutations, failure in cases:
        gkm = _mutated(VALIDATION_DOCUMENTS[name], mutations)
        report = validate_gkm(gkm)
        assert failure in report.failures, (name, mutations, report.summary())
        assert report == validation_by_residues(gkm.graph, gkm.axial, gkm.connection)


def test_inferred_connection_passes_axiom3():
    # validate does not re-check axiom 3 on a connection it inferred: on every
    # fixture, and wherever inference succeeds on a document with bent weights
    # (whatever the other axioms say), the connection passes axiom 3
    for name, gkm in core_fixtures().items():
        conn = infer_connection(gkm.graph, gkm.axial)
        report = validate_axial(gkm.graph, gkm.axial, conn)
        assert report.passed(3), name
    rng = random.Random(23)
    fixtures = {**core_fixtures(), "grassmannian4": gen_grassmannian(4), "projective6": gen_projective(6)}
    inferred = failing_other_axioms = 0
    for name, gkm in fixtures.items():
        for doc in bent_documents(rng, gkm, 60):
            graph, axial = labels_from_document(doc)
            try:
                conn = infer_connection(graph, axial)
            except (ConnectionNotFoundError, AmbiguousConnectionError):
                continue
            report = validate_axial(graph, axial, conn)
            assert report.passed(3), (name, doc)
            inferred += 1
            failing_other_axioms += not report.ok
    assert inferred > 100 and failing_other_axioms > 50, (inferred, failing_other_axioms)


def test_infer_connection_matches_pinned_fixture_connections():
    for gkm in (gen_s6(), gen_grassmannian(2), gen_grassmannian(3)):
        assert infer_connection(gkm.graph, gkm.axial) == gkm.connection


def test_infer_connection_brute_force_oracle():
    # enumerate all bijections fixing e -> ē and count congruence-compatible ones
    fixtures = (gen_projective(2), gen_projective(3), gen_projective(4), gen_grassmannian(2), gen_grassmannian(3))
    for gkm in fixtures:
        g = gkm.graph
        inferred = infer_connection(g, gkm.axial)
        for e in g.darts:
            p, q = g.source(e), g.target(e)
            eb = g.reverse(e)
            rest_p = [d for d in g.out_darts(p) if d != e]
            rest_q = [d for d in g.out_darts(q) if d != eb]
            valid = []
            for image in permutations(rest_q):
                pairs = dict(zip(rest_p, image))
                pairs[e] = eb
                ok = True
                for e2, img in pairs.items():
                    diff = tuple(a - b for a, b in zip(gkm.weight(img), gkm.weight(e2)))
                    c = weight_ratio(diff, gkm.weight(e))
                    if c is None or c.denominator != 1:
                        ok = False
                        break
                if ok:
                    valid.append(pairs)
            assert len(valid) == 1
            assert valid[0] == gkm.connection[e]
            assert valid[0] == inferred[e]


def test_ambiguous_connection_is_an_error():
    # pairwise independent, but w3 and w4 are both congruent to -w2 modulo
    # w1, so the partner of e2 across e1 is not forced
    graph = build_graph(
        ["p", "q"],
        [("e1", "p", "q"), ("e2", "p", "q"), ("e3", "p", "q"), ("e4", "p", "q")],
    )
    weights = {
        "e1": (1, 0),
        "e2": (0, 1),
        "e3": (1, -1),
        "e4": (2, -1),
    }
    for eid in list(weights):
        weights[eid + "~"] = tuple(-x for x in weights[eid])
    axial = AxialFunction(2, weights)
    with pytest.raises(AmbiguousConnectionError, match="dart e2 at vertex p has 2 partners across dart e1"):
        infer_connection(graph, axial)


def _made_ambiguous(rng: random.Random, gkm: GkmGraph) -> dict:
    # across the first dart e, give a second out-dart at the target the weight
    # of a first one plus w(e): both then answer the same source out-dart
    g = gkm.graph
    weights = dict(gkm.axial.weights)
    e = g.darts[0]
    d1, d2 = rng.sample([d for d in g.out_darts(g.target(e)) if d != g.reverse(e)], 2)
    weights[d2] = tuple(x + y for x, y in zip(weights[d1], weights[e]))
    weights[g.reverse(d2)] = tuple(-x for x in weights[d2])
    return weights


def _in_search_order(graph, maps) -> bool:
    """Each map iterates ``e`` first, then the other out-darts of its source in ordering order."""
    return all(
        list(maps[e]) == [e, *(d for d in graph.out_darts(graph.source(e)) if d != e)] for e in graph.darts
    )


def test_infer_connection_matches_the_pairwise_scan_off_the_axioms():
    # weights perturbed at random (some zeroed) or made ambiguous, and never
    # validated: the residue-keyed inference gives the scan's maps, in the
    # scan's order, or both raise the same error with the same message.  The
    # perturbed weights break axiom 1 on some edges, so both darts of such an
    # edge are searched; document-shaped labels negate w(X~) on every edge, so
    # every reverse map is the inverse of its dart's
    rng = random.Random(5)
    seen = {"ok": 0, ConnectionNotFoundError: 0, AmbiguousConnectionError: 0}
    seen_documents = dict.fromkeys(seen, 0)

    def outcome(infer, graph, axial):
        try:
            maps = infer(graph, axial)
        except AxialError as exc:
            return type(exc), str(exc)
        return [(e, list(nabla.items())) for e, nabla in maps.items()]

    def check(graph, axial, counts, where):
        expected = outcome(infer_connection_by_scan, graph, axial)
        assert outcome(infer_connection, graph, axial) == expected, where
        counts["ok" if isinstance(expected, list) else expected[0]] += 1

    for name, gkm in core_fixtures().items():
        for trial in range(10):
            if trial >= 8 and gkm.m >= 3:
                weights = _made_ambiguous(rng, gkm)
            else:
                bend = (0.0, 0.01, 0.05, 0.2)[trial % 4]
                weights = {}
                for d, w in gkm.axial.weights.items():
                    u = rng.random()
                    weights[d] = (0,) * gkm.n if u < bend / 4 else tuple(x + (u < bend) * rng.choice((-1, 1)) for x in w)
            check(gkm.graph, AxialFunction(gkm.n, weights), seen, (name, trial))
    assert all(seen.values()), seen

    # off axiom 1 both darts of edge a are searched: b pairs with c~ across a, but b~ with b across a~
    three = build_graph(["p", "q"], [("a", "p", "q"), ("b", "p", "q"), ("c", "p", "q")])
    crossed = AxialFunction(1, {"a": (5,), "a~": (7,), "b": (1,), "b~": (22,), "c": (2,), "c~": (16,)})
    message = "forced partners across a and its reverse are not mutually inverse"
    assert outcome(infer_connection, three, crossed) == (ConnectionNotFoundError, message)
    check(three, crossed, seen, "crossed")

    fixtures = {**core_fixtures(), "grassmannian4": gen_grassmannian(4), "projective6": gen_projective(6)}
    for name, gkm in fixtures.items():
        for doc in bent_documents(rng, gkm, 12):
            doc = doc._replace(orderings=shuffled_orderings(rng, gkm.graph))
            check(*labels_from_document(doc), seen_documents, (name, doc))
        graph = with_orderings(gkm.graph, shuffled_orderings(rng, gkm.graph))
        check(graph, gkm.axial, seen_documents, name)
        if gkm.m >= 3:
            check(graph, AxialFunction(gkm.n, _made_ambiguous(rng, gkm)), seen_documents, name)
        zeroed = dict(gkm.axial.weights)
        edge = rng.choice(graph.edge_representatives())
        zeroed[edge] = zeroed[graph.reverse(edge)] = (0,) * gkm.n
        check(graph, AxialFunction(gkm.n, zeroed), seen_documents, name)
    assert all(seen_documents.values()), seen_documents


def test_infer_connection_searches_each_edge_once(monkeypatch):
    # one residue key per edge where w(X~) = −w(X), built for the dart that
    # sorts first; an edge off axiom 1 has both darts keyed.  Every map
    # iterates in the order of the direct search
    keyed = []

    def counting_key(packed, w, e):
        keyed.append(e)
        return _residue_key(packed, w, e)

    monkeypatch.setattr("gkmgraph.axial._residue_key", counting_key)

    def infer_counting(graph, weights, torus_rank):
        keyed.clear()
        labels = AxialFunction(torus_rank, weights)
        conn = infer_connection(graph, labels)
        assert conn == infer_connection_by_scan(graph, labels)
        assert _in_search_order(graph, conn)
        return keyed

    rng = random.Random(41)
    for gkm in (gen_grassmannian(4), gen_projective(6)):
        graph = with_orderings(gkm.graph, shuffled_orderings(rng, gkm.graph))
        assert infer_counting(graph, gkm.axial.weights, gkm.n) == list(graph.edge_representatives())

    # projective(6) with every dart into vertex 3 negated: the six edges at 3,
    # forward or reverse into it, are off axiom 1
    gkm = gen_projective(6)
    graph = with_orderings(gkm.graph, shuffled_orderings(rng, gkm.graph))
    weights = dict(gkm.axial.weights)
    into = [graph.reverse(d) for d in graph.out_darts("3")]
    weights.update({d: tuple(-x for x in weights[d]) for d in into})
    expected = [d for d in graph.darts if not d.endswith("~") or d in into or graph.reverse(d) in into]
    assert infer_counting(graph, weights, gkm.n) == expected

    # one edge off axiom 1 on two vertices (b and c are dependent)
    graph = build_graph(["p", "q"], [("a", "p", "q"), ("b", "p", "q"), ("c", "p", "q")])
    weights = {"a": (1, 0), "a~": (1, 1), "b": (0, 1), "b~": (0, -1), "c": (0, -1), "c~": (0, 1)}
    assert infer_counting(graph, weights, 2) == ["a", "a~", "b", "c"]


def test_axiom2_matches_the_pairwise_minors():
    # some out-darts forced to k times another out-dart's weight at the same
    # vertex (k = 0 zeroes it, k < 0 flips its sign), some with their reverse
    # left as it was, so that w(ē) ≠ −w(e) and the reverse dart's own
    # direction decides at its vertex: the primitive directions find the
    # witnesses the 2×2 minors find, in the same order
    rng = random.Random(17)
    zeroed = flipped = one_sided = 0
    for gkm in (gen_projective(5), gen_grassmannian(4), gen_s6()):
        g = gkm.graph
        for _ in range(30):
            weights = dict(gkm.axial.weights)
            for _ in range(rng.randint(1, 3)):
                a, b = rng.sample(g.out_darts(rng.choice(g.vertices)), 2)
                k = rng.randint(-3, 2)
                weights[b] = tuple(k * x for x in weights[a])
                if rng.random() < 0.3:
                    one_sided += 1
                else:
                    weights[g.reverse(b)] = tuple(-x for x in weights[b])
                zeroed += k == 0
                flipped += k < 0
            expected = [
                (f"vertex {p}", f"darts {a} and {b} carry dependent weights")
                for p in g.vertices
                for i, a in enumerate(g.out_darts(p))
                for b in g.out_darts(p)[i + 1 :]
                if pairwise_dependent(weights[a], weights[b])
            ]
            report = validate_axial(g, AxialFunction(gkm.n, weights))
            assert [(f.where, f.detail) for f in report.failures_for(2)] == expected
            assert expected
    assert zeroed and flipped and one_sided


def test_validation_shortcuts_leave_the_report_unchanged():
    # axiom 2 compares pairs only where directions repeat or vanish, and axiom
    # 4 reads one vertex once axioms 1 and 3 hold: on the fixtures and on bent
    # weights, with the fixture's full connection, the inferred one and none,
    # the report is the one that checks every pair and every vertex
    rng = random.Random(41)
    one_vertex_failing = 0
    for name, gkm in core_fixtures().items():
        for doc in [document_from_gkm(gkm)] + bent_documents(rng, gkm, 40):
            graph, axial = labels_from_document(doc)
            connections = [gkm.connection, None]
            try:
                connections.append(infer_connection(graph, axial))
            except (ConnectionNotFoundError, AmbiguousConnectionError):
                pass
            for connection in connections:
                report = validate_axial(graph, axial, connection)
                assert report == validation_checking_every_vertex(graph, axial, connection), (name, doc)
                one_vertex_failing += report.passed(3) and not report.passed(4)
    assert one_vertex_failing > 50, one_vertex_failing


def test_congruence_coefficient_examples():
    s6 = gen_s6()
    inv = invariant_function(s6)
    for e in s6.graph.darts:
        assert inv[e][s6.graph.dart_index(e)] == -2
    gr = gen_grassmannian(2)
    inv = invariant_function(gr)

    def coefficient(e, e_prime):
        return inv[e][gr.graph.dart_index(e_prime)]

    # dart {1,2} -> {1,3}: keeps 1, replaces 2 by 3
    e = "01.02|01.03"
    assert coefficient(e, e) == -2
    # same kept element, different new element: -1
    assert coefficient(e, "01.02|01.04") == -1
    # kept element is the replaced one, new element elsewhere: 0
    assert coefficient(e, "01.02|02.04") == 0
    # the other route to a subset containing the new element: -1
    assert coefficient(e, "01.02|02.03") == -1


def test_congruence_coefficient_rejects_inconsistent_connection():
    s6 = gen_s6()
    maps = {e: dict(m) for e, m in s6.connection.items()}
    # break one image: e2 now maps to ē2 across e1, whose weight change is -2b
    maps["e1"]["e2"] = "e2~"
    maps["e1"]["e3"] = "e3~"
    broken = GkmGraph(s6.graph, s6.axial, maps)
    assert AxiomFailure(3, "dart e1", "weight change of e2 is not a multiple of the base weight") in validate_gkm(
        broken
    ).failures
    with pytest.raises(AxiomViolationError, match="^axiom 3 fails at dart e1: "):
        invariant_function(broken)


def test_ratio_helper():
    assert ratio((2, -4), (1, -2)) == 2
    assert ratio((0, 0), (1, -2)) == 0
    assert ratio((1, 0), (1, -2)) is None
    assert ratio((1, -2), (2, -4)) is None  # one half is not an integer
    assert ratio((0, 0), (0, 0)) == 0
    assert ratio((1, 1), (0, 0)) is None


def _keys(base, *vectors):
    """Residue keys of ``vectors`` modulo ``base``, packed together on one graph."""
    names = [f"v{i}" for i in range(len(vectors))]
    graph = build_graph(["p", "q"], [(d, "p", "q") for d in ["b", *names]])
    weights = dict(zip(["b", *names], [base, *vectors]))
    weights.update({d + "~": tuple(-x for x in w) for d, w in list(weights.items())})
    key = _residue_key(_packed(AxialFunction(len(base), weights), graph.darts)[0], weights, "b")
    return [key(d) for d in names]


def test_packed_residue_key():
    # negative pivot: q = 3 // -2 = -2
    a, b, c = _keys((-2, 1), (3, 5), (3 - 6, 5 + 3), (4, 5))
    assert a == b != c
    # the pivot is the first nonzero coordinate, not the first coordinate
    a, b, c = _keys((0, 3, 1), (1, 7, 2), (1, 7 - 15, 2 - 5), (2, 7, 2))
    assert a == b != c
    # zero base: only equal weights differ by a multiple of it
    a, b, c = _keys((0, 0), (1, -2), (1, -2), (0, 0))
    assert a == b != c
    # non-unit pivot: (1, 2) is half of (2, 4), not an integer multiple
    a, b, c = _keys((2, 4), (0, 0), (1, 2), (-2, -4))
    assert a == c != b
    # residues (0, -12, 0) and (0, 4, -1) would pack equal in 4-bit fields
    a, b = _keys((1, 3, 0), (3, -3, 0), (-1, 1, -1))
    assert a != b
    # the largest residue entry, M(M+1) for v = (M, -M) modulo (1, M), sits
    # in the second field of the documented width s = 2·bitlen(M) + 2
    for big in (1, 7, 8, 1000):
        (key,) = _keys((1, big), (big, -big))
        assert key == -big * (big + 1) << (2 * big.bit_length() + 2)
