import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmgraph import (
    IntegerMatrix,
    axial_group_basis,
    complete_inside_lattice,
    document_from_gkm,
    emit_gkm,
    extend_axial,
    gen_grassmannian,
    gen_projective,
    gen_s6,
    invariant_function,
    project_axial,
    validate_gkm,
    verify_extension,
)
from gkmgraph.axial import AxiomViolationError
from gkmgraph.extension import (
    ExtensionCheck,
    GraphMismatchError,
    NotSurjectiveError,
    RankExceededError,
)
from helpers import canonical_elements, core_fixtures, element_in_lattice

DROP_A3 = IntegerMatrix.from_rows([[1, 0, 1], [0, 1, 1]])


def test_extension_by_nothing_is_the_identity():
    for name, gkm in core_fixtures().items():
        result = extend_axial(gkm, gkm.n)
        assert result.axial == gkm.axial, name
        assert all(result.weight(d)[: gkm.n] == gkm.weight(d) for d in gkm.graph.darts), name
        assert validate_gkm(result).ok


def test_round_trip_project_then_extend():
    original = gen_projective(3)
    projected = project_axial(original, DROP_A3)
    assert projected.n == 2
    result = extend_axial(projected, 3)
    assert result.n == 3
    check = verify_extension(projected, result)
    assert check.ok
    # projecting by [I | 0] recovers the projected weights exactly
    for d in projected.graph.darts:
        assert result.weight(d)[:2] == projected.weight(d)
    # the congruence data and the solution lattice are untouched
    assert invariant_function(result) == invariant_function(projected)
    assert (
        axial_group_basis(result).coordinate_matrix
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


def test_extending_a_labeling_that_fails_an_axiom_names_the_failure():
    # every weight doubled: the input itself fails axiom 4, and extending it
    # by nothing builds no completion, so the error names the failed axiom
    gkm = gen_projective(3)
    doubled = gkm.with_weights({d: tuple(2 * x for x in w) for d, w in gkm.axial.weights.items()}, gkm.n)
    with pytest.raises(AxiomViolationError, match=r"^axiom 4 fails at vertex 0: weights do not span"):
        extend_axial(doubled, 3)


def test_target_below_current_rank_is_a_usage_error():
    with pytest.raises(ValueError):
        extend_axial(gen_s6(), 1)


def test_all_feasible_targets_succeed_and_verify():
    for name, gkm in core_fixtures().items():
        basis = axial_group_basis(gkm)
        for target in range(gkm.n, basis.rank + 1):
            result = extend_axial(gkm, target)
            assert result.n == target, name
            assert validate_gkm(result).ok, name
            check = verify_extension(gkm, result)
            assert check.ok, name
            assert invariant_function(result) == invariant_function(gkm), name
            # the chosen elements, the canonical elements of the result, start
            # with the canonical block and stay inside the solution lattice
            chosen = canonical_elements(result)
            assert chosen[: gkm.n] == canonical_elements(gkm), name
            for el in chosen:
                assert element_in_lattice(gkm, el), name


def test_extension_lattice_is_unchanged():
    gkm = gen_s6()
    result = extend_axial(gkm, 2)
    assert (
        axial_group_basis(result).coordinate_matrix
        == axial_group_basis(gkm).coordinate_matrix
    )


def _fold(v):
    """``[I | v]``: the first ``len(v)`` coordinates, each plus ``v`` times the dropped ones."""
    k = len(v)
    return IntegerMatrix.from_rows([[int(c == i) for c in range(k)] + list(v[i]) for i in range(k)])


def _folded_cases():
    """``(projected, target)`` pairs: fixtures folded by ``[I | v]``, each with the ranks it extends back to."""
    # projective(10) folded by this v has coordinates of the canonical
    # elements with an echelon pivot above 1: the lattice basis vectors at
    # the non-pivot columns complete them to a sublattice of index > 1
    v10 = [(x,) for x in (3, -2, 2, 2, 3, -2, -1, 2, 2)]
    cases = [(project_axial(gen_projective(10), _fold(v10)), 10)]
    rng = random.Random(1510)
    fixtures = [gen_projective(m) for m in range(3, 7)] + [gen_grassmannian(2), gen_grassmannian(3)]
    for gkm in fixtures:
        n = gkm.n
        for drop in (1, 2):
            for _ in range(3):
                v = [[rng.choice((-2, -1, 1, 2, 3)) for _ in range(drop)] for _ in range(n - drop)]
                try:
                    projected = project_axial(gkm, _fold(v))
                except AxiomViolationError:
                    continue  # the fold collapses the weights at some vertex
                cases += [(projected, target) for target in range(n - drop + 1, n + 1)]
    return cases


FOLDED_CASES = _folded_cases()


def test_projections_extend_back_and_verify():
    assert len(FOLDED_CASES) > 20
    for projected, target in FOLDED_CASES:
        result = extend_axial(projected, target)
        assert validate_gkm(result).ok
        assert verify_extension(projected, result).ok
        assert invariant_function(result) == invariant_function(projected)


# sha256 of the document written for extend_axial(project_axial(F, [I | v]), n),
# by fixture F with its fold v; projective(10) completes with an echelon pivot
# above 1, the others with unit pivots
EXTEND_DOCUMENTS = {
    (gen_projective, 3, ((1,), (2,))):
        "ef47ebf7657c0ca4d307bf22ad1b52a90098d82c4ec1d39e8c0464b006212229",
    (gen_projective, 4, ((1,), (2,), (3,))):
        "e48f346c578c1972e37ffe1706b9b7354f9ec23ff76d555c6ac6fb7163e9c6b7",
    (gen_projective, 5, ((1,), (2,), (3,), (4,))):
        "97e5372f81af27ff493d640ad81ea6b7b36fee0fc15fac17d85c9ad8e2bdbd19",
    (gen_projective, 6, ((1,), (2,), (3,), (4,), (5,))):
        "897a1beca7cd0a10e9650fda8fb28b9171523531ed31a966622e444eb984051d",
    (gen_projective, 10, ((3,), (-2,), (2,), (2,), (3,), (-2,), (-1,), (2,), (2,))):
        "ce39fdcf7414cd46d99d3680d84a2b842e42ce33373cbaec7dd56eb979222820",
    (gen_grassmannian, 2, ((2,), (2,))):
        "9cdfe0252187c8c231e72708385ff652b90fc029b80e9e7b15b1bb7d3481226d",
    (gen_grassmannian, 3, ((1,), (2,), (3,))):
        "194eae50e1489c40c873b48961a0d8f5ebdf4cc2df1e34c23319af1ef2515232",
}


@pytest.mark.parametrize("case", EXTEND_DOCUMENTS, ids=lambda c: f"{c[0].__name__[4:]}{c[1]}")
def test_extend_writes_the_pinned_document(case):
    gen, size, v = case
    original = gen(size)
    result = extend_axial(project_axial(original, _fold(v)), original.n)
    text = emit_gkm(document_from_gkm(result))
    assert hashlib.sha256(text.encode()).hexdigest() == EXTEND_DOCUMENTS[case]


def _projections():
    """``(projected, original)`` pairs: fixtures folded by ``[I | v]`` onto rank ``n − 1``."""
    out = []
    for gen, size, v in [(gen_projective, 6, (1, 2, 3, 4, 5)), (gen_grassmannian, 3, (1, 2, 3))]:
        original = gen(size)
        out.append((project_axial(original, _fold([(x,) for x in v])), original))
    return out


def test_completion_at_the_base_vertex_is_the_full_completion_restricted():
    # an element is determined by its value at the first vertex, so completing
    # the canonical restrictions there gives the coordinates and the index of
    # the full-coordinate completion
    for gkm in [p for p, _ in _projections()] + list(core_fixtures().values()):
        basis, g, m = axial_group_basis(gkm), gkm.graph, gkm.m
        darts = [d for v in g.vertices for d in g.orderings[v]]
        full = [tuple(gkm.weight(d)[i] for d in darts) for i in range(gkm.n)]
        restricted = [c[:m] for c in full]
        completion, index = complete_inside_lattice(full, basis.coordinate_matrix.data)
        at_base = complete_inside_lattice(restricted, [row[:m] for row in basis.coordinate_matrix.data])
        assert at_base == (completion, index)


def _completion_index(gkm) -> int:
    """The index ``complete_inside_lattice`` returns for the canonical restrictions, as ``extend_axial`` completes them."""
    basis, g, m = axial_group_basis(gkm), gkm.graph, gkm.m
    canon = [tuple(gkm.weight(d)[i] for d in g.orderings[g.vertices[0]]) for i in range(gkm.n)]
    return complete_inside_lattice(canon, [row[:m] for row in basis.coordinate_matrix.data])[1]


def test_the_completion_index_reads_1_on_valid_input():
    # axiom 4 at the first vertex makes the canonical restrictions primitive in
    # Z^m, and the lattice's restriction there is saturated, so they are
    # primitive in it: the index is a check that reads 1, not information
    graphs = list(core_fixtures().values()) + [p for p, _ in _projections()] + [p for p, _ in FOLDED_CASES]
    assert [_completion_index(gkm) for gkm in graphs] == [1] * len(graphs)


@pytest.mark.parametrize("name", sorted(core_fixtures()))
@settings(derandomize=True, max_examples=15, deadline=None)
@given(data=st.data())
def test_the_completion_index_reads_1_on_folded_fixtures(name, data):
    # weights folded by a drawn [I | v] onto any rank; a fold that passes the
    # axioms (one that collapses some vertex's weights does not) completes at index 1
    gkm = core_fixtures()[name]
    k = data.draw(st.integers(1, gkm.n), label="rows")
    v = data.draw(st.lists(st.lists(st.integers(-2, 3), min_size=gkm.n - k, max_size=gkm.n - k), min_size=k, max_size=k))
    weights = {d: _fold(v).mul_vector(w) for d, w in gkm.axial.weights.items()}
    folded = gkm.with_weights(weights, k)
    if validate_gkm(folded).ok:
        assert _completion_index(folded) == 1


def test_completion_and_verification_take_one_hnf_per_matrix(monkeypatch):
    # every target is back-substituted through the one HNF of its matrix
    import gkmgraph.extension
    import gkmgraph.intlinalg

    hnf, shapes = gkmgraph.intlinalg.hermite_normal_form, []

    def counted(m):
        shapes.append(m.shape)
        return hnf(m)

    for projected, original in _projections():
        basis = axial_group_basis(projected)
        base, m = projected.graph.vertices[0], projected.m
        canon = [el[base] for el in canonical_elements(projected)]
        with monkeypatch.context() as patch:
            for module in (gkmgraph.intlinalg, gkmgraph.extension):
                patch.setattr(module, "hermite_normal_form", counted)
            complete_inside_lattice(canon, [row[:m] for row in basis.coordinate_matrix.data])
            assert shapes == [(basis.rank, m)]
            del shapes[:]
            assert verify_extension(projected, original).ok
            assert shapes == [(original.n, m)]
            del shapes[:]


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


def test_project_onto_z0_is_a_value_error():
    # no torus of rank 0: a document cannot hold its empty weights, and its
    # solution lattice would bound nothing.  The rows are counted before any
    # validation, so a labeling off axiom 1 gets the same refusal
    off_axiom_1 = gen_projective(2).with_weights(
        dict(gen_projective(2).axial.weights, **{"0-1~": (1, 0), "0-2~": (0, 1)}), 2
    )
    for gkm in (gen_projective(1), gen_s6(), off_axiom_1):
        with pytest.raises(ValueError, match="^projection has no rows$"):
            project_axial(gkm, IntegerMatrix.from_rows([], gkm.n))


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
    # as a base, the scaled labeling fails axiom 3 and is refused
    with pytest.raises(AxiomViolationError, match="^axiom 3 fails at dart e1: "):
        verify_extension(scaled, gkm)


def test_verify_extension_rejects_a_candidate_failing_the_axioms():
    # a zero coordinate keeps every weight projecting back, but the weights
    # no longer span Z^4 at any vertex
    base = gen_projective(3)
    padded = base.with_weights({d: w + (0,) for d, w in base.axial.weights.items()}, 4)
    check = verify_extension(base, padded)
    assert not check.ok
    assert check.projection is None
    assert check.detail.startswith("axiom 4 fails at vertex ")


def test_verify_extension_refuses_a_base_failing_the_axioms():
    # doubled weights span 2·Z^3 only: the base is refused with its first
    # failure, while as a candidate the same labeling is no extension
    gkm = gen_projective(3)
    doubled = gkm.with_weights({d: tuple(2 * x for x in w) for d, w in gkm.axial.weights.items()}, gkm.n)
    first = str(AxiomViolationError.from_report(validate_gkm(doubled)))
    assert first.startswith("axiom 4 fails at vertex 0: weights do not span the integer lattice")
    with pytest.raises(AxiomViolationError) as exc:
        verify_extension(doubled, gkm)
    assert str(exc.value) == first
    assert verify_extension(gkm, doubled) == ExtensionCheck(False, None, first)


def test_verify_extension_needs_the_same_graph():
    with pytest.raises(GraphMismatchError):
        verify_extension(gen_s6(), gen_projective(2))


def test_verify_extension_rejects_different_connections():
    gkm = gen_s6()
    maps = {e: dict(m) for e, m in gkm.connection.items()}
    maps["e1"]["e2"], maps["e1"]["e3"] = maps["e1"]["e3"], maps["e1"]["e2"]
    maps["e1~"] = {img: src for src, img in maps["e1"].items()}
    from gkmgraph import GkmGraph

    other = GkmGraph(gkm.graph, gkm.axial, maps)
    check = verify_extension(gkm, other)
    assert not check.ok
    assert "connection" in check.detail
