"""Acceptance suite: one test per criterion, every tolerance exact.

Each test prints a single pass line (visible under ``pytest -v -s``); a
failing assertion marks the criterion red.
"""

import random
import time

from gkmgraph import (
    GkmGraph,
    IntegerMatrix,
    axial_group_basis,
    extend_axial,
    gen_grassmannian,
    gen_projective,
    gen_s6,
    infer_connection,
    invariant_function,
    project_axial,
    verify_extension,
)
from gkmgraph.extension import RankExceededError
from helpers import (
    basis_elements,
    core_fixtures,
    in_vertex_order,
    permutation_matrix,
    random_unimodular,
    random_valid_projection,
    shuffled_orderings,
    with_first_vertex,
    with_orderings,
)

S6_LATTICE = IntegerMatrix.from_rows([[1, 0, -1, -1, 0, 1], [0, 1, -1, 0, -1, 1]])


def _report(k: int, message: str) -> None:
    print(f"criterion {k}: PASS — {message}")


def test_criterion_01_s6_rank_and_lattice():
    start = time.monotonic()
    basis = axial_group_basis(gen_s6())
    assert basis.rank == 2
    # canonical form of {((x, y, z), (-x, -y, -z)) : x + y + z = 0}
    assert basis.coordinate_matrix == S6_LATTICE
    for el in basis_elements(gen_s6(), basis):
        x, y, z = el["p"]
        assert x + y + z == 0
        assert el["q"] == (-x, -y, -z)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, f"two-vertex triple edge: rank 2, expected lattice ({elapsed:.3f}s)")


def test_criterion_02_s6_invariant_vectors():
    start = time.monotonic()
    gkm = gen_s6()
    inv = invariant_function(gkm)
    assert inv["e1"] == (-2, 1, 1)
    for e in gkm.graph.darts:
        ne = permutation_matrix(gkm, e)
        assert ne.mul_vector(inv[e]) == inv[gkm.graph.reverse(e)]
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(2, f"coefficient vector (-2, 1, 1) and its transport law ({elapsed:.3f}s)")


def test_criterion_03_johnson_ranks():
    start = time.monotonic()
    for n in range(1, 7):
        gkm = gen_grassmannian(n)
        assert axial_group_basis(gkm).rank == n + 1, f"n={n}"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(3, f"Johnson graphs J(n+2,2): rank n+1 for n=1..6 ({elapsed:.2f}s)")


def test_criterion_04_johnson_coefficient_classes():
    for n in (1, 2, 3, 4):
        gkm = gen_grassmannian(n)
        g = gkm.graph
        inv = invariant_function(gkm)
        for e, vec in inv.items():
            u = set(g.sources[e].split("."))
            v = set(g.targets[e].split("."))
            (new,) = v - u
            for d, c in zip(g.orderings[g.sources[e]], vec):
                if d == e:
                    assert c == -2
                elif (u & set(g.targets[d].split("."))) == (u & v):
                    assert c == -1
                elif new in set(g.targets[d].split(".")):
                    assert c == -1
                else:
                    assert c == 0
    _report(4, "coefficient classes -2 / -1 / 0 / -1 on every dart, n=1..4")


def test_criterion_05_johnson_tail_relations():
    for n in (2, 3, 4, 5):
        gkm = gen_grassmannian(n)
        top = f"{n + 1:02d}.{n + 2:02d}"
        for el in basis_elements(gkm, axial_group_basis(gkm)):
            x = el[top]
            for j in range(n - 1):
                assert x[2 * n - j - 1] + x[0] - x[n - j - 1] - x[n] == 0
    _report(5, "top-vertex tail relations vanish on every basis vector, n=2..5")


def test_criterion_06_rank_bounds():
    for name, gkm in core_fixtures().items():
        r = axial_group_basis(gkm).rank
        assert gkm.n <= r <= gkm.m, name
    rng = random.Random(617)
    for trial in range(100):
        m = rng.randint(1, 5)
        projected, _ = random_valid_projection(rng, gen_projective(m))
        r = axial_group_basis(projected).rank
        assert projected.n <= r <= projected.m, f"trial {trial}: m={m}"
    _report(6, "rank bounds hold on fixtures and 100 random projections")


def test_criterion_07_solver_equivalence():
    from helpers import method_fixtures

    for name, gkm in method_fixtures().items():
        a = axial_group_basis(gkm, method="propagate")
        b = axial_group_basis(gkm, method="full")
        assert a.coordinate_matrix == b.coordinate_matrix, name
    rng = random.Random(617)
    for trial in range(100):
        m = rng.randint(1, 5)
        projected, _ = random_valid_projection(rng, gen_projective(m))
        a = axial_group_basis(projected, method="propagate")
        b = axial_group_basis(projected, method="full")
        assert a.coordinate_matrix == b.coordinate_matrix, f"trial {trial}"
    _report(7, "propagation and full-system lattices identical everywhere")


def test_criterion_08_round_trip_extension():
    original = gen_projective(3)
    pi = IntegerMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    projected = project_axial(original, pi)
    result = extend_axial(projected, 3)
    check = verify_extension(projected, result)
    assert check.ok
    for d in projected.graph.darts:
        assert result.weight(d)[:2] == projected.weight(d)
    assert invariant_function(result) == invariant_function(projected)
    assert (
        axial_group_basis(result).coordinate_matrix
        == axial_group_basis(projected).coordinate_matrix
    )
    _report(8, "project-then-extend round trip preserves everything")


def test_criterion_09_maximality():
    for n in (1, 2, 3, 4):
        gkm = gen_grassmannian(n)
        try:
            extend_axial(gkm, n + 2)
        except RankExceededError:
            continue
        raise AssertionError(f"extension to rank {n + 2} unexpectedly succeeded for n={n}")
    _report(9, "no extension past rank n+1 on J(n+2,2), n=1..4")


def test_criterion_10_johnson_connection_inference():
    for n in (1, 2, 3, 4):
        gkm = gen_grassmannian(n)
        assert infer_connection(gkm.graph, gkm.axial) == gkm.connection, f"n={n}"
    _report(10, "inferred connections equal the closed form, n=1..4")


def _property_checks(name: str, gkm: GkmGraph) -> None:
    g = gkm.graph
    m = g.valence
    inv = invariant_function(gkm)
    basis = axial_group_basis(gkm)
    for e in g.darts:
        assert inv[e][g.positions[e]] == -2, name
        prod = permutation_matrix(gkm, g.reverse(e)) @ permutation_matrix(gkm, e)
        assert prod == IntegerMatrix.identity(m), name
    for el in basis_elements(gkm, basis):
        for e in g.darts:
            assert el[g.sources[e]][g.positions[e]] == -el[g.targets[e]][g.positions[g.reverse(e)]], name
    for v in g.vertices:
        renamed = with_first_vertex(gkm, v)
        other = axial_group_basis(renamed)
        assert in_vertex_order(gkm, renamed, other.coordinate_matrix) == basis.coordinate_matrix, name


def test_criterion_11_property_suite():
    rng = random.Random(1105)
    fixtures = core_fixtures()
    for name, gkm in fixtures.items():
        _property_checks(name, gkm)
        g2 = with_orderings(gkm.graph, shuffled_orderings(rng, gkm.graph))
        reordered = GkmGraph(g2, gkm.axial, gkm.connection)
        assert axial_group_basis(reordered).rank == axial_group_basis(gkm).rank, name
    pool = list(fixtures.items())
    for trial in range(50):
        name, gkm = pool[trial % len(pool)]
        u = random_unimodular(rng, gkm.n)
        weights = {d: u.mul_vector(w) for d, w in gkm.axial.weights.items()}
        twisted = gkm.with_weights(weights, gkm.n)
        reference = axial_group_basis(gkm)
        _property_checks(f"{name} twist {trial}", twisted)
        # a basis change of the weight lattice leaves the solutions untouched
        assert axial_group_basis(twisted).coordinate_matrix == reference.coordinate_matrix
    _report(11, "invariant properties hold on fixtures and 50 unimodular twists")
