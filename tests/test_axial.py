from itertools import permutations

import pytest

from gkmgraph import (
    AmbiguousConnectionError,
    AxialFunction,
    Connection,
    GkmGraph,
    build_graph,
    congruence_coefficient,
    gen_grassmannian,
    gen_projective,
    gen_s6,
    infer_connection,
    validate_axial,
    validate_gkm,
)
from gkmgraph.axial import NotProportionalError, _ratio
from helpers import core_fixtures, rational_rank, weight_ratio


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


def test_axiom2_failure_at_every_vertex():
    graph = build_graph(["p", "q", "r"], [("pq", "p", "q"), ("qr", "q", "r"), ("rp", "r", "p")])
    weights = {d: (1, 0) if not d.endswith("~") else (-1, 0) for d in graph.darts}
    report = validate_axial(graph, AxialFunction(2, weights))
    vertices = {f.where for f in report.failures_for(2)}
    assert vertices == {"vertex p", "vertex q", "vertex r"}


def test_axiom4_distinguishes_integer_and_rational_span():
    base = gen_projective(2)
    weights = {d: tuple(2 * x for x in base.weight(d)) for d in base.graph.darts}
    axial = AxialFunction(2, weights)
    assert not validate_axial(base.graph, axial).passed(4)
    # the doubled weights still span over the rationals, so only the integer span fails
    g = base.graph
    assert all(rational_rank([weights[d] for d in g.out_darts(p)]) == 2 for p in g.vertices)


def test_inferred_connection_passes_axiom3():
    for name, gkm in core_fixtures().items():
        conn = infer_connection(gkm.graph, gkm.axial)
        report = validate_axial(gkm.graph, gkm.axial, conn)
        assert report.passed(3), name


def test_infer_connection_matches_pinned_fixture_connections():
    for gkm in (gen_s6(), gen_grassmannian(2), gen_grassmannian(3)):
        assert infer_connection(gkm.graph, gkm.axial) == gkm.connection


def test_infer_connection_brute_force_oracle():
    # enumerate all bijections fixing e -> ē and count congruence-compatible ones
    gkm = gen_projective(3)
    g = gkm.graph
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
        assert valid[0] == dict(gkm.connection.maps[e])


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
    with pytest.raises(AmbiguousConnectionError):
        infer_connection(graph, axial)


def test_congruence_coefficient_examples():
    s6 = gen_s6()
    for e in s6.graph.darts:
        assert congruence_coefficient(s6, e, e) == -2
    gr = gen_grassmannian(2)
    # dart {1,2} -> {1,3}: keeps 1, replaces 2 by 3
    e = "01.02|01.03"
    assert congruence_coefficient(gr, e, e) == -2
    # same kept element, different new element: -1
    assert congruence_coefficient(gr, e, "01.02|01.04") == -1
    # kept element is the replaced one, new element elsewhere: 0
    assert congruence_coefficient(gr, e, "01.02|02.04") == 0
    # the other route to a subset containing the new element: -1
    assert congruence_coefficient(gr, e, "01.02|02.03") == -1


def test_congruence_coefficient_rejects_inconsistent_connection():
    s6 = gen_s6()
    maps = {e: dict(m) for e, m in s6.connection.maps.items()}
    # break one image: e2 now maps to ē2 across e1, whose weight change is -2b
    maps["e1"]["e2"] = "e2~"
    maps["e1"]["e3"] = "e3~"
    broken = GkmGraph(s6.graph, s6.axial, Connection(maps))
    with pytest.raises(NotProportionalError):
        congruence_coefficient(broken, "e1", "e2")


def test_ratio_helper():
    assert _ratio((2, -4), (1, -2)) == 2
    assert _ratio((0, 0), (1, -2)) == 0
    assert _ratio((1, 0), (1, -2)) is None
    assert _ratio((1, -2), (2, -4)) is None  # one half is not an integer
    assert _ratio((0, 0), (0, 0)) == 0
    assert _ratio((1, 1), (0, 0)) is None
