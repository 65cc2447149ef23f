import pytest

from gkmgraph import (
    IntegerMatrix,
    axial_group_basis,
    extend_axial,
    gen_grassmannian,
    gen_projective,
    gen_s6,
    invariant_function,
    project_axial,
    verify_extension,
)
from gkmgraph.extension import (
    AxiomViolationError,
    GraphMismatchError,
    NotSurjectiveError,
    RankExceededError,
)
from helpers import core_fixtures, element_in_lattice

DROP_A3 = IntegerMatrix.from_rows([[1, 0, 1], [0, 1, 1]])


def test_extension_by_nothing_is_the_identity():
    for name, gkm in core_fixtures().items():
        result = extend_axial(gkm, gkm.n)
        assert result.gkm.axial == gkm.axial, name
        assert result.projection == IntegerMatrix.identity(gkm.n), name
        assert result.report.ok


def test_round_trip_project_then_extend():
    original = gen_projective(3)
    projected = project_axial(original, DROP_A3)
    assert projected.n == 2
    result = extend_axial(projected, 3)
    assert result.gkm.n == 3
    check = verify_extension(projected, result.gkm)
    assert check.ok
    # the computed projection recovers the projected weights exactly
    for d in projected.graph.darts:
        assert result.projection.mul_vector(result.gkm.weight(d)) == projected.weight(d)
    # the congruence data and the solution lattice are untouched
    assert invariant_function(result.gkm) == invariant_function(projected)
    assert (
        axial_group_basis(result.gkm).coordinate_matrix
        == axial_group_basis(projected).coordinate_matrix
    )


def test_rank_exceeded():
    for n in (1, 2, 3, 4):
        gkm = gen_grassmannian(n)
        with pytest.raises(RankExceededError):
            extend_axial(gkm, n + 2)
    for name, gkm in core_fixtures().items():
        rank = axial_group_basis(gkm).rank
        with pytest.raises(RankExceededError):
            extend_axial(gkm, rank + 1)


def test_target_below_current_rank_is_a_usage_error():
    with pytest.raises(ValueError):
        extend_axial(gen_s6(), 1)


def test_all_feasible_targets_succeed_and_verify():
    for name, gkm in core_fixtures().items():
        basis = axial_group_basis(gkm)
        for target in range(gkm.n, basis.rank + 1):
            result = extend_axial(gkm, target, basis=basis)
            assert result.gkm.n == target, name
            assert result.report.ok, name
            check = verify_extension(gkm, result.gkm)
            assert check.ok, name
            assert invariant_function(result.gkm) == invariant_function(gkm), name
            # chosen elements start with the canonical block and stay inside
            # the solution lattice
            for el in result.chosen_elements:
                assert element_in_lattice(gkm, el), name


def test_extension_lattice_is_unchanged():
    gkm = gen_s6()
    result = extend_axial(gkm, 2)
    assert (
        axial_group_basis(result.gkm).coordinate_matrix
        == axial_group_basis(gkm).coordinate_matrix
    )


def test_scaled_completion_triggers_saturation_retry():
    # hand extend_axial a basis whose non-canonical directions are doubled:
    # the first completion fails the lattice-span axiom, the retry inside the
    # saturation of the span recovers a primitive choice
    from gkmgraph import AxialElement, AxialGroupBasis, canonical_elements
    from helpers import rational_rank

    projected = project_axial(gen_projective(3), DROP_A3)
    real = axial_group_basis(projected)
    verts = projected.graph.vertices
    canon = canonical_elements(projected)
    canon_rows = [el.coordinates(verts) for el in canon]
    spare = next(
        el
        for el in real.elements
        if rational_rank(canon_rows + [el.coordinates(verts)]) == 3
    )
    doubled = tuple(2 * x for x in spare.coordinates(verts))
    doctored = AxialGroupBasis(
        elements=(canon[0], canon[1], AxialElement.from_coordinates(projected.graph, doubled)),
        rank=3,
        base_vertex=real.base_vertex,
        canonical_matrix=real.canonical_matrix,
        coordinate_matrix=real.coordinate_matrix,
    )
    result = extend_axial(projected, 3, basis=doctored)
    assert result.report.ok
    assert verify_extension(projected, result.gkm).ok
    # the doubled vector itself cannot appear in a spanning choice
    assert result.chosen_elements[2].coordinates(verts) != doubled


def test_project_identity_is_identity():
    gkm = gen_s6()
    out = project_axial(gkm, IntegerMatrix.identity(2))
    assert out.axial == gkm.axial
    assert out.connection == gkm.connection


def test_project_requires_surjectivity():
    with pytest.raises(NotSurjectiveError):
        project_axial(gen_s6(), IntegerMatrix.from_rows([[2, 0], [0, 1]]))
    with pytest.raises(NotSurjectiveError):
        project_axial(gen_projective(3), IntegerMatrix.from_rows([[1, 0, 0], [1, 0, 0]]))


def test_project_collapsing_weights_is_an_axiom_violation():
    # both basis directions onto the first one: the triangle weights collide
    with pytest.raises(AxiomViolationError):
        project_axial(gen_projective(2), IntegerMatrix.from_rows([[1, 1]]))


def test_projected_fixture_is_valid_and_keeps_the_lattice():
    original = gen_projective(3)
    projected = project_axial(original, DROP_A3)
    assert axial_group_basis(projected).rank == 3
    check = verify_extension(projected, original)
    assert check.ok
    assert check.projection == DROP_A3


def test_verify_extension_of_itself():
    for name, gkm in core_fixtures().items():
        check = verify_extension(gkm, gkm)
        assert check.ok, name
        assert check.projection == IntegerMatrix.identity(gkm.n)


def test_verify_extension_rejects_scaled_labels():
    gkm = gen_s6()
    weights = dict(gkm.axial.weights)
    weights["e1"] = (2, 0)
    weights["e1~"] = (-2, 0)
    scaled = gkm.with_weights(weights, 2)
    assert not verify_extension(gkm, scaled).ok
    assert not verify_extension(scaled, gkm).ok


def test_verify_extension_needs_the_same_graph():
    with pytest.raises(GraphMismatchError):
        verify_extension(gen_s6(), gen_projective(2))


def test_verify_extension_rejects_different_connections():
    gkm = gen_s6()
    maps = {e: dict(m) for e, m in gkm.connection.maps.items()}
    maps["e1"]["e2"], maps["e1"]["e3"] = maps["e1"]["e3"], maps["e1"]["e2"]
    maps["e1~"] = {img: src for src, img in maps["e1"].items()}
    from gkmgraph import Connection, GkmGraph

    other = GkmGraph(gkm.graph, gkm.axial, Connection(maps))
    check = verify_extension(gkm, other)
    assert not check.ok
    assert "connection" in check.detail
