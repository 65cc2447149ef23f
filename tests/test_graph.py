import random

import pytest

from gkmgraph import gen_grassmannian, gen_projective, gen_s6
from gkmgraph.graph import GraphError, OrientedGraph, build_graph, reverse_name
from helpers import breadth_first_tree, with_orderings

TRIANGLE = [("pq", "p", "q"), ("qr", "q", "r"), ("rp", "r", "p")]


def test_triangle():
    g = build_graph(["p", "q", "r"], TRIANGLE)
    assert g.valence == 2
    assert len(g.darts) == 6
    assert g.vertices == ("p", "q", "r")
    assert g.out_darts("p") == ("pq", "rp~")
    assert g.source("pq") == "p" and g.target("pq") == "q"
    assert g.source("pq~") == "q" and g.target("pq~") == "p"


def test_parallel_edges():
    g = build_graph(["p", "q"], [("e1", "p", "q"), ("e2", "p", "q"), ("e3", "p", "q")])
    assert g.valence == 3
    assert len(g.darts) == 6
    assert g.out_darts("q") == ("e1~", "e2~", "e3~")


def test_reversal_involution():
    g = build_graph(["p", "q", "r"], TRIANGLE)
    for d in g.darts:
        assert g.reverse(g.reverse(d)) == d
        assert g.source(g.reverse(d)) == g.target(d)
        assert g.target(g.reverse(d)) == g.source(d)


def test_dart_count_is_twice_edge_count():
    g = build_graph(["p", "q", "r"], TRIANGLE)
    assert sum(len(g.out_darts(v)) for v in g.vertices) == len(g.darts)
    assert len(g.darts) == 2 * len(g.edge_representatives())


def test_loop_rejected():
    with pytest.raises(GraphError, match="^dart e is a loop at vertex p$"):
        build_graph(["p"], [("e", "p", "p")])


def test_disconnected_rejected():
    with pytest.raises(GraphError, match="^vertex c is not reachable from a$"):
        build_graph(
            ["a", "b", "c", "d"],
            [("e1", "a", "b"), ("e2", "c", "d")],
        )


def test_irregular_rejected():
    with pytest.raises(GraphError, match="^vertex a has out-valence 2, expected a regular graph$"):
        build_graph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "a", "b")])


def test_pinned_ordering_must_be_permutation():
    with pytest.raises(GraphError):
        build_graph(["p", "q", "r"], TRIANGLE, orderings={"p": ("pq", "pq")})
    g = build_graph(["p", "q", "r"], TRIANGLE, orderings={"p": ("rp~", "pq")})
    assert g.out_darts("p") == ("rp~", "pq")
    assert g.dart_index("pq") == 1


@pytest.mark.parametrize("orderings", [None, {"p": ("rp~", "pq"), "r": ("rp", "qr~")}])
def test_graph_record_holds_its_darts_and_positions(orderings):
    g = build_graph(["p", "q", "r"], TRIANGLE, orderings=orderings)
    assert g.darts == tuple(sorted(g.sources))
    assert g.positions.keys() == g.sources.keys()
    assert all(g.positions[d] == g.orderings[g.source(d)].index(d) for d in g.darts)
    assert g.tree == {g.target(e): e for e in breadth_first_tree(g)}
    assert OrientedGraph(*g) == g
    # the tree is the walk by dart id, whatever the edge order and the pinned orderings
    rng = random.Random(0)
    for graph in (gen_s6().graph, gen_projective(3).graph, gen_grassmannian(2).graph):
        edges = [(e, graph.source(e), graph.target(e)) for e in graph.edge_representatives()]
        builds = [build_graph(graph.vertices, order) for order in (rng.sample(edges, len(edges)), edges[::-1])]
        builds.append(with_orderings(graph, {v: graph.out_darts(v)[::-1] for v in graph.vertices}))
        tree = {graph.target(e): e for e in breadth_first_tree(graph)}
        assert [build.tree for build in builds] == [tree] * 3


def test_with_orderings():
    g = build_graph(["p", "q", "r"], TRIANGLE)
    g2 = with_orderings(g, {"q": ("qr", "pq~")})
    assert g2.out_darts("q") == ("qr", "pq~")
    assert g2.out_darts("p") == g.out_darts("p")
    assert g2.darts == g.darts
    assert all(g2.reverse(d) == g.reverse(d) for d in g.darts)
    with pytest.raises(GraphError):
        with_orderings(g, {"q": ("qr", "rp~")})


@pytest.mark.parametrize(
    "vertices, edges, error, message",
    [
        ([], [], GraphError, "a graph needs at least one vertex"),
        (["p", "q", "p"], [("e", "p", "q")], GraphError, "duplicate vertex ids"),
        (["p", "q"], [("e", "p", "q"), ("e", "q", "p")], GraphError, "duplicate edge id 'e'"),
        (["p", "q"], [("e", "p", "r")], GraphError, "dart e references an unknown vertex"),
        # every edge id is checked before any dart's endpoints
        (["p", "q"], [("e", "p", "p"), ("f~", "p", "q")], GraphError, "edge id 'f~' must not contain '~'"),
        (["p", "q"], [("e", "p", "p")], GraphError, "dart e is a loop at vertex p"),
    ],
)
def test_malformed_graph_error(vertices, edges, error, message):
    with pytest.raises(GraphError) as err:
        build_graph(vertices, edges)
    assert type(err.value) is error
    assert str(err.value) == message


def test_ordering_at_an_unknown_vertex_is_a_graph_error():
    # the least unknown vertex is named, also next to a valid ordering
    edges = [("e", "p", "q"), ("f", "p", "q")]
    with pytest.raises(GraphError) as err:
        build_graph(["p", "q"], edges, orderings={"s": ["x"], "r": [], "p": ["f", "e"]})
    assert type(err.value) is GraphError
    assert str(err.value) == "ordering at unknown vertex r"


def test_edge_ids_cannot_contain_reverse_marker():
    with pytest.raises(GraphError):
        build_graph(["p", "q"], [("e~", "p", "q")])


def test_reverse_name_round_trips():
    assert reverse_name("e1") == "e1~"
    assert reverse_name("e1~") == "e1"
