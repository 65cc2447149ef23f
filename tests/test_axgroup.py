import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmgraph import (
    GkmGraph,
    IntegerMatrix,
    axial_group_basis,
    canonical_elements,
    gen_grassmannian,
    gen_projective,
    gen_s6,
    propagate,
    transport_matrix,
)
from gkmgraph.errors import GkmError
from helpers import (
    brute_force_solutions,
    core_fixtures,
    element_in_lattice,
    in_integer_span,
    method_fixtures,
    rational_rank,
    shuffled_orderings,
)

S6_CANONICAL = IntegerMatrix.from_rows(
    [[1, 0, -1, -1, 0, 1], [0, 1, -1, 0, -1, 1]]
)


def test_propagate_s6_negates():
    s6 = gen_s6()
    for f in [(1, 0, -1), (0, 1, -1), (3, -5, 2)]:
        expected = tuple(-x for x in f)
        for e in s6.graph.darts:
            assert propagate(s6, f, e) == expected


def test_propagate_zero_is_zero():
    for gkm in core_fixtures().values():
        zero = (0,) * gkm.m
        for e in gkm.graph.darts:
            assert propagate(gkm, zero, e) == zero


def test_propagate_round_trip_is_identity():
    # transporting any vector across e and back across ē returns it
    rng = random.Random(7)
    gkm = gen_grassmannian(2)
    for e in gkm.graph.darts:
        f = tuple(rng.randint(-9, 9) for _ in range(gkm.m))
        back = propagate(gkm, propagate(gkm, f, e), gkm.graph.reverse(e))
        assert back == f


def test_transport_matrix_matches_propagate():
    gkm = gen_s6()
    t = transport_matrix(gkm, "e1")
    assert t.mul_vector((1, 2, 3)) == propagate(gkm, (1, 2, 3), "e1")


def test_s6_lattice():
    basis = axial_group_basis(gen_s6())
    assert basis.rank == 2
    assert basis.coordinate_matrix == S6_CANONICAL
    assert basis.canonical_matrix == IntegerMatrix.from_rows([[1, 0, -1], [0, 1, -1]])
    for el in basis.elements:
        x, y, z = el["p"]
        assert x + y + z == 0
        assert el["q"] == (-x, -y, -z)


def test_brute_force_oracle_small_fixtures():
    # enumerate all solutions in a small box with independent arithmetic,
    # then compare against the basis in both directions
    for gkm in (gen_s6(), gen_projective(2)):
        basis = axial_group_basis(gkm)
        rows = [el.coordinates(gkm.graph.vertices) for el in basis.elements]
        brute = brute_force_solutions(gkm, bound=2)
        assert rational_rank(brute) == basis.rank
        for sol in brute:
            assert in_integer_span(rows, sol)
        for el in basis.elements:
            assert element_in_lattice(gkm, el)


def test_basis_elements_satisfy_relations_everywhere():
    for name, gkm in core_fixtures().items():
        basis = axial_group_basis(gkm)
        for el in basis.elements:
            assert element_in_lattice(gkm, el), name


def test_antisymmetry_across_darts():
    for name, gkm in core_fixtures().items():
        g = gkm.graph
        for el in axial_group_basis(gkm).elements:
            for e in g.darts:
                assert el.component(g, e) == -el.component(g, g.reverse(e)), name


def test_grassmannian_ranks():
    for n in (1, 2, 3, 4):
        assert axial_group_basis(gen_grassmannian(n)).rank == n + 1


def test_projective_rank_is_pinned_by_bounds():
    # weight rank equals valence, so the bounds force the answer
    for m in (1, 2, 3, 4):
        assert axial_group_basis(gen_projective(m)).rank == m


def test_methods_agree_on_fixtures():
    for name, gkm in method_fixtures().items():
        a = axial_group_basis(gkm, method="propagate")
        b = axial_group_basis(gkm, method="full_system")
        assert a.coordinate_matrix == b.coordinate_matrix, name
        assert a.elements == b.elements, name


RELABEL_FIXTURES = core_fixtures()


@pytest.mark.parametrize("name", sorted(RELABEL_FIXTURES))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_methods_agree_off_the_axioms(name, data):
    # weights relabelled through a random small matrix and never validated,
    # so pairwise independence and spanning may fail; from every base vertex
    # the propagation solver must still match the full system, lattice or error
    gkm = RELABEL_FIXTURES[name]
    k = data.draw(st.integers(1, gkm.n + 1), label="rows")
    row = st.lists(st.integers(-2, 2), min_size=gkm.n, max_size=gkm.n)
    matrix = data.draw(st.lists(row, min_size=k, max_size=k), label="matrix")
    weights = {
        d: tuple(sum(a * b for a, b in zip(r, w)) for r in matrix)
        for d, w in gkm.axial.weights.items()
    }
    relabelled = gkm.with_weights(weights, k)

    def outcome(method, base=None):
        try:
            return axial_group_basis(relabelled, method=method, base_vertex=base).coordinate_matrix
        except GkmError as exc:
            return type(exc)

    expected = outcome("full_system")
    for v in gkm.graph.vertices:
        assert outcome("propagate", v) == expected, v


def test_rank_nullity_against_rational_oracle():
    # solution rank = total unknowns - rational rank of the one-orientation system
    from gkmgraph.congruence import invariant_function, permutation

    for name, gkm in core_fixtures().items():
        g = gkm.graph
        m = g.valence
        inv = invariant_function(gkm)
        offset = {v: i * m for i, v in enumerate(g.vertices)}
        width = m * len(g.vertices)
        rows = []
        for e in g.edge_representatives():
            sig = permutation(gkm, e)
            eb = g.reverse(e)
            cbar = inv[eb]
            pos = g.dart_index(eb)
            for j in range(m):
                row = [0] * width
                row[offset[g.source(e)] + sig[j]] += 1
                row[offset[g.target(e)] + j] -= 1
                row[offset[g.target(e)] + pos] -= cbar[j]
                rows.append(row)
        expected = width - rational_rank(rows)
        assert axial_group_basis(gkm).rank == expected, name


def test_base_vertex_independence():
    for name, gkm in core_fixtures().items():
        reference = axial_group_basis(gkm)
        for v in gkm.graph.vertices:
            other = axial_group_basis(gkm, base_vertex=v)
            assert other.rank == reference.rank, name
            assert other.coordinate_matrix == reference.coordinate_matrix, name


def test_rank_is_ordering_independent():
    rng = random.Random(11)
    for name, gkm in core_fixtures().items():
        reference = axial_group_basis(gkm).rank
        for _ in range(3):
            g2 = gkm.graph.with_orderings(shuffled_orderings(rng, gkm.graph))
            gkm2 = GkmGraph(g2, gkm.axial, gkm.connection)
            assert axial_group_basis(gkm2).rank == reference, name


def test_canonical_elements_examples():
    s6 = gen_s6()
    f1, f2 = canonical_elements(s6)
    assert f1["p"] == (1, 0, -1)
    assert f2["p"] == (0, 1, -1)
    assert f1["q"] == (-1, 0, 1)
    pj = gen_projective(2)
    g1, _g2 = canonical_elements(pj)
    assert g1["0"] == (1, 0)


def test_canonical_elements_are_independent_lattice_members():
    for name, gkm in core_fixtures().items():
        canon = canonical_elements(gkm)
        assert len(canon) == gkm.n
        for el in canon:
            assert element_in_lattice(gkm, el), name
        verts = gkm.graph.vertices
        rows = [el.coordinates(verts) for el in canon]
        assert rational_rank(rows) == gkm.n, name
        # the restrictions to any single vertex already have full rank
        for v in verts:
            assert rational_rank([el[v] for el in canon]) == gkm.n, name


def test_restriction_to_any_vertex_is_injective():
    for name, gkm in core_fixtures().items():
        basis = axial_group_basis(gkm)
        for v in gkm.graph.vertices:
            rows = [el[v] for el in basis.elements]
            assert rational_rank(rows) == basis.rank, name


def test_grassmannian_tail_relations():
    # with the pinned ordering at the top vertex {n+1, n+2}, every solution
    # satisfies x_{2n-j} = -x_1 + x_{n-j} + x_{n+1} for j = 0..n-2
    for n in (2, 3, 4):
        gkm = gen_grassmannian(n)
        top = f"{n + 1:02d}.{n + 2:02d}"
        for el in axial_group_basis(gkm).elements:
            x = el[top]
            for j in range(n - 1):
                assert x[2 * n - j - 1] == -x[0] + x[n - j - 1] + x[n]


def test_rank_bounds():
    for name, gkm in core_fixtures().items():
        r = axial_group_basis(gkm).rank
        assert gkm.n <= r <= gkm.m, name
