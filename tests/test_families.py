import pytest

from gkmgraph import (
    gen_grassmannian,
    gen_projective,
    gen_s6,
    infer_connection,
    validate_gkm,
)
from helpers import grassmannian_by_subsets


def test_projective_shapes():
    for m in (1, 2, 3, 4, 5):
        gkm = gen_projective(m)
        assert len(gkm.graph.vertices) == m + 1
        assert gkm.m == m
        assert gkm.n == m
        assert len(gkm.graph.edge_representatives()) == m * (m + 1) // 2
        assert validate_gkm(gkm).ok


def test_projective_triangle_weights():
    gkm = gen_projective(2)
    assert gkm.weight("0-1") == (1, 0)  # a_1, with a_0 = 0
    assert gkm.weight("1-2") == (-1, 1)  # a_2 - a_1
    assert gkm.weight("0-2") == (0, 1)
    assert gkm.weight("0-1~") == (-1, 0)


@pytest.mark.parametrize("m", range(1, 17))
def test_projective_connection_is_the_inferred_one(m):
    # the closed form the family writes is the connection the weights force
    gkm = gen_projective(m)
    assert gkm.connection == infer_connection(gkm.graph, gkm.axial)


def test_projective_rejects_bad_m():
    with pytest.raises(ValueError):
        gen_projective(0)


def test_s6_shape_and_weights():
    gkm = gen_s6()
    assert len(gkm.graph.vertices) == 2
    assert gkm.m == 3 and gkm.n == 2
    assert validate_gkm(gkm).ok
    # the weight triple sums to zero
    total = tuple(
        sum(ws) for ws in zip(gkm.weight("e1"), gkm.weight("e2"), gkm.weight("e3"))
    )
    assert total == (0, 0)


def test_s6_connection_swaps_the_other_pair():
    gkm = gen_s6()
    assert gkm.connection["e1"] == {"e1": "e1~", "e2": "e3~", "e3": "e2~"}
    assert gkm.connection["e3~"] == {"e3~": "e3", "e1~": "e2", "e2~": "e1"}
    assert infer_connection(gkm.graph, gkm.axial) == gkm.connection


def test_grassmannian_shapes():
    for n in range(1, 7):
        gkm = gen_grassmannian(n)
        assert len(gkm.graph.vertices) == (n + 2) * (n + 1) // 2
        assert gkm.m == 2 * n
        assert gkm.n == n + 1


def test_grassmannian_smallest_is_a_triangle():
    gkm = gen_grassmannian(1)
    assert gkm.graph.vertices == ("01.02", "01.03", "02.03")
    assert gkm.m == 2
    assert validate_gkm(gkm).ok


def test_grassmannian_weights():
    gkm = gen_grassmannian(2)  # ground set {1, 2, 3, 4}, a_4 = 0
    # dart {1,2} -> {1,3} replaces 2 by 3: a_3 - a_2
    assert gkm.weight("01.02|01.03") == (0, -1, 1)
    # dart {1,2} -> {2,4} replaces 1 by 4: -a_1
    assert gkm.weight("01.02|02.04") == (-1, 0, 0)
    # reversal of a forward dart negates
    assert gkm.weight("01.02|01.03~") == (0, 1, -1)


def test_grassmannian_ordering_lists_kept_smaller_element_first():
    gkm = gen_grassmannian(2)
    g = gkm.graph
    # at {1,3}: keep 1 (new element 2 then 4), then keep 3 (2 then 4)
    order = g.out_darts("01.03")
    targets = [g.target(d) for d in order]
    assert targets == ["01.02", "01.04", "02.03", "03.04"]


def subset(vertex: str) -> set[int]:
    """The 2-subset a Grassmannian vertex name ``ii.jj`` stands for."""
    return set(map(int, vertex.split(".")))


def test_grassmannian_ordering_follows_the_rule_at_every_vertex():
    n = 4
    g = gen_grassmannian(n).graph
    for v in g.vertices:
        i, j = sorted(subset(v))
        others = [k for k in range(1, n + 3) if k not in (i, j)]
        expected = [{i, k} for k in others] + [{j, k} for k in others]
        assert [g.source(d) for d in g.out_darts(v)] == [v] * len(expected)
        assert [subset(g.target(d)) for d in g.out_darts(v)] == expected


def test_grassmannian_weight_is_new_minus_old_on_every_dart():
    n = 4

    def a(k: int) -> list[int]:
        # a_{n+2} is the zero vector
        return [1 if t == k else 0 for t in range(1, n + 2)]

    gkm = gen_grassmannian(n)
    assert len(gkm.axial.weights) == len(gkm.graph.darts)
    for d in gkm.graph.darts:
        source, target = subset(gkm.graph.source(d)), subset(gkm.graph.target(d))
        (old,) = source - target
        (new,) = target - source
        assert gkm.weight(d) == tuple(x - y for x, y in zip(a(new), a(old)))


@pytest.mark.parametrize("n", range(1, 11))
def test_grassmannian_matches_the_subset_construction(n):
    gkm, oracle = gen_grassmannian(n), grassmannian_by_subsets(n)
    assert gkm == oracle
    assert list(gkm.graph.sources) == list(oracle.graph.sources)
    assert list(gkm.axial.weights) == list(oracle.axial.weights)


def test_grassmannian_validates_and_matches_inference():
    for n in range(1, 7):
        gkm = gen_grassmannian(n)
        assert validate_gkm(gkm).ok
        assert infer_connection(gkm.graph, gkm.axial) == gkm.connection


def test_grassmannian_rejects_bad_n():
    with pytest.raises(ValueError):
        gen_grassmannian(0)
