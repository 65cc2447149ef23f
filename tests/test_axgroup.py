import contextlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmgraph import (
    AxiomFailure,
    AxiomViolationError,
    GkmGraph,
    IntegerMatrix,
    axial_group_basis,
    gen_grassmannian,
    gen_projective,
    gen_s6,
    gkm_from_document,
    infer_connection,
    lattice_basis,
    load_gkm,
    parse_gkm,
    project_axial,
    propagate,
    validate_gkm,
)
from helpers import (
    TWISTED_S6,
    basis_elements,
    brute_force_solutions,
    canonical_elements,
    core_fixtures,
    element_in_lattice,
    in_integer_span,
    in_vertex_order,
    method_fixtures,
    propagation_checking_every_edge,
    rational_rank,
    renamed_vertices,
    shuffled_orderings,
    transport_matrix,
    with_first_vertex,
    with_orderings,
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


def test_propagate_reads_only_the_congruence_of_its_own_dart():
    # propagate reads c(ē) from the validation of the whole graph, so a weight
    # change that breaks the congruence across an unrelated dart makes it
    # refuse, with the first failure of the report
    gkm = gen_projective(4)
    g = gkm.graph
    e = g.darts[0]
    near = {e, *g.out_darts(g.target(e)), *g.out_darts(g.source(e))}
    far = next(d for d in g.darts if d not in near and g.reverse(d) not in near)
    bent = gkm.with_weights(dict(gkm.axial.weights, **{far: (5,) * gkm.n}), gkm.n)
    assert any(None in vector for vector in bent.validation.coefficients.values())
    for f in [(1, 0, 0, 0), (2, -1, 3, 5)]:
        with pytest.raises(AxiomViolationError) as exc:
            propagate(bent, f, e)
        assert str(exc.value) == _refusal(bent)
        assert transport_matrix(gkm, e).mul_vector(f) == propagate(gkm, f, e)


def test_transport_matrix_matches_propagate():
    gkm = gen_s6()
    t = transport_matrix(gkm, "e1")
    assert t.mul_vector((1, 2, 3)) == propagate(gkm, (1, 2, 3), "e1")


def test_s6_lattice():
    basis = axial_group_basis(gen_s6())
    assert basis.rank == 2
    assert basis.coordinate_matrix == S6_CANONICAL
    assert [row[:3] for row in basis.coordinate_matrix.data] == [(1, 0, -1), (0, 1, -1)]
    for el in basis_elements(gen_s6(), basis):
        x, y, z = el["p"]
        assert x + y + z == 0
        assert el["q"] == (-x, -y, -z)


def test_brute_force_oracle_small_fixtures():
    # enumerate all solutions in a small box with independent arithmetic,
    # then compare against the basis in both directions
    for gkm in (gen_s6(), gen_projective(2)):
        basis = axial_group_basis(gkm)
        rows = basis.coordinate_matrix.data
        brute = brute_force_solutions(gkm, bound=2)
        assert rational_rank(brute) == basis.rank
        for sol in brute:
            assert in_integer_span(rows, sol)
        for el in basis_elements(gkm, basis):
            assert element_in_lattice(gkm, el)


def test_basis_elements_satisfy_relations_everywhere():
    for name, gkm in core_fixtures().items():
        for el in basis_elements(gkm, axial_group_basis(gkm)):
            assert element_in_lattice(gkm, el), name


def test_antisymmetry_across_darts():
    for name, gkm in core_fixtures().items():
        g = gkm.graph
        for el in basis_elements(gkm, axial_group_basis(gkm)):
            for e in g.darts:
                assert el[g.source(e)][g.dart_index(e)] == -el[g.target(e)][g.dart_index(g.reverse(e))], name


def test_grassmannian_ranks():
    for n in (1, 2, 3, 4):
        assert axial_group_basis(gen_grassmannian(n)).rank == n + 1


def test_projective_rank_is_pinned_by_bounds():
    # weight rank equals valence, so the bounds force the answer
    for m in (1, 2, 3, 4):
        assert axial_group_basis(gen_projective(m)).rank == m


def test_methods_agree_on_fixtures():
    # with the first, middle and last vertex renamed to come first, on each
    # fixture and on its [I | 1] projection onto Z^(n-1), n > 1, where that
    # keeps the weights independent; the rows expanded from the first
    # vertex's HNF are the canonical wide basis, the same lattice from every
    # start
    graphs = method_fixtures()
    for name, gkm in list(graphs.items()):
        if gkm.n == 1:
            continue
        fold = IntegerMatrix.from_rows([[int(c == i) for c in range(gkm.n - 1)] + [1] for i in range(gkm.n - 1)], gkm.n)
        with contextlib.suppress(AxiomViolationError):
            graphs[f"{name} by [I | 1]"] = project_axial(gkm, fold)
    projected = ["projective3", "projective4", "grassmannian3", "grassmannian4"]
    assert list(graphs)[len(method_fixtures()):] == [f"{name} by [I | 1]" for name in projected]
    for name, gkm in graphs.items():
        vertices, width = gkm.graph.vertices, len(gkm.graph.vertices) * gkm.m
        expected = axial_group_basis(gkm).coordinate_matrix
        for base in (vertices[0], vertices[len(vertices) // 2], vertices[-1]):
            renamed = with_first_vertex(gkm, base)
            a = axial_group_basis(renamed, method="propagate")
            b = axial_group_basis(renamed, method="full")
            assert a == b, (name, base)
            assert list(a.coordinate_matrix.data) == lattice_basis(a.coordinate_matrix.data, width), name
            assert in_vertex_order(gkm, renamed, a.coordinate_matrix) == expected, (name, base)


def test_a_kernel_off_hnf_is_canonicalized_before_the_expansion(monkeypatch):
    # on these fixtures the kernel at the first vertex ends in HNF.  Adding
    # the last row of each refinement's combinations to the first keeps the
    # lattice and leaves that HNF, so the solver must bring its kernel back
    # before expanding it, and still returns the canonical basis
    from gkmgraph import axgroup

    kernel, basis, changed = axgroup.integer_kernel_basis, axgroup.lattice_basis, []

    def sheared(matrix):
        rows = kernel(matrix)
        return [tuple(a + b for a, b in zip(rows[0], rows[-1]))] + rows[1:] if len(rows) > 1 else rows

    def counted_basis(rows, width):
        out = basis(rows, width)
        changed.append(out != rows)
        return out

    for name, gkm in method_fixtures().items():
        expected = axial_group_basis(gkm, method="full")
        with monkeypatch.context() as patch:
            patch.setattr(axgroup, "integer_kernel_basis", sheared)
            patch.setattr(axgroup, "lattice_basis", counted_basis)
            assert axial_group_basis(gkm) == expected, name
    assert any(changed)


def test_method_is_propagate_or_full():
    gkm = gen_s6()
    assert axial_group_basis(gkm, method="full") == axial_group_basis(gkm, method="propagate")
    with pytest.raises(ValueError, match="unknown method 'full_system'"):
        axial_group_basis(gkm, method="full_system")


RELABEL_FIXTURES = core_fixtures()


@pytest.mark.parametrize("name", sorted(RELABEL_FIXTURES))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_methods_agree_off_the_axioms(name, data):
    # weights relabelled through a random small matrix, with w(X~) = w(X) on
    # a drawn set of edges, so axioms 1, 2, 3 and 4 may fail: both methods
    # refuse such a labeling with the same first failure whichever vertex
    # comes first, and on one that passes they give the same lattice
    gkm = RELABEL_FIXTURES[name]
    g = gkm.graph
    k = data.draw(st.integers(1, gkm.n + 1), label="rows")
    row = st.lists(st.integers(-2, 2), min_size=gkm.n, max_size=gkm.n)
    matrix = data.draw(st.lists(row, min_size=k, max_size=k), label="matrix")
    weights = {
        d: tuple(sum(a * b for a, b in zip(r, w)) for r in matrix)
        for d, w in gkm.axial.weights.items()
    }
    for e in data.draw(st.sets(st.sampled_from(g.edge_representatives())), label="w(X~) = w(X)"):
        weights[g.reverse(e)] = weights[e]
    _agree_from_every_base(gkm.with_weights(weights, k))


def _refusal(gkm) -> str:
    """The message of the refusal of ``gkm``: the first failure of its report."""
    return str(AxiomViolationError.from_report(validate_gkm(gkm)))


def _agree_from_every_base(gkm):
    """The lattice both methods give with every vertex renamed to come first, or ``None`` when both refuse ``gkm``.

    A refusal is the first failure of the report of the graph refused, so a
    renaming may name another vertex.
    """

    def outcome(method, graph):
        try:
            return axial_group_basis(graph, method=method).coordinate_matrix
        except AxiomViolationError as exc:
            return str(exc)

    expected, valid = outcome("full", gkm), validate_gkm(gkm).ok
    assert outcome("propagate", gkm) == expected
    for v in gkm.graph.vertices:
        renamed = with_first_vertex(gkm, v)
        got = outcome("full", renamed)
        assert got == outcome("propagate", renamed), v
        if valid:
            assert in_vertex_order(gkm, renamed, got) == expected, v
        else:
            assert got == _refusal(renamed), v
    if valid:
        return expected
    assert expected == _refusal(gkm)
    return None


def test_propagation_refuses_a_connection_not_sending_each_dart_to_its_reverse():
    # the step reads f(q)_ē from the ē row, which holds f(p) at ∇_ē(ē); off
    # ∇_d(d) = d̄ it would give p:(4, 1, -2) where the lattice of the full
    # system is p:(2, -1, -1).  Axiom 3 fails (so does axiom 2), and both
    # methods refuse the labeling as loading does
    gkm = gkm_from_document(parse_gkm(TWISTED_S6))
    coefficients = gkm.validation.coefficients  # the congruence holds; only the connection is off
    assert coefficients.keys() == set(gkm.graph.darts) and all(None not in v for v in coefficients.values())
    assert AxiomFailure(3, "dart e2", "map must send e2 to e2~") in validate_gkm(gkm).failures
    assert _agree_from_every_base(gkm) is None
    with pytest.raises(AxiomViolationError, match=f"^{re.escape(_refusal(gkm))}$"):
        load_gkm(TWISTED_S6)


def test_rank_n_exit_holds_off_axiom_1():
    # the rank-n exit relies on axioms 1, 3 and 4, and both methods refuse a
    # labeling off axiom 1 before either solves.  s6 with w(X~) = w(X) on
    # every edge fails only axiom 1
    s6 = gen_s6()
    weights = {}
    for e, w in zip(("e1", "e2", "e3"), [(1, 2), (0, 1), (-1, 0)]):
        weights[e] = weights[e + "~"] = w
    bent = s6.with_weights(weights, s6.n)
    gkm = GkmGraph(bent.graph, bent.axial, infer_connection(bent.graph, bent.axial))
    assert {f.axiom for f in validate_gkm(gkm).failures} == {1}
    assert _agree_from_every_base(gkm) is None
    # projective(2) with w(X~) = w(X) on the two edges at vertex 0, where
    # c(ē)_ē would be 0 rather than -2: refused, by propagate too
    gkm = gen_projective(2)
    weights = dict(gkm.axial.weights, **{"0-1~": (1, 0), "0-2~": (0, 1)})
    bent = gkm.with_weights(weights, gkm.n)
    assert not validate_gkm(bent).passed(1)
    assert _agree_from_every_base(bent) is None
    with pytest.raises(AxiomViolationError, match="^axiom 1 fails at dart 0-1: "):
        propagate(bent, (1, 0), "0-1")


def test_rank_n_exit_is_gated_by_the_base_vertex_rank():
    # weights in Z^4 of rank 3 everywhere: axioms 1 and 3 hold, axiom 4 fails
    # at every vertex, and both methods refuse the labeling
    gkm = gen_grassmannian(2)
    lift = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0))
    weights = {d: tuple(sum(a * b for a, b in zip(r, w)) for r in lift) for d, w in gkm.axial.weights.items()}
    lifted = gkm.with_weights(weights, 4)
    report = validate_gkm(lifted)
    assert report.failures == tuple(
        AxiomFailure(4, f"vertex {v}", "weights do not span the integer lattice") for v in gkm.graph.vertices
    )
    assert _agree_from_every_base(lifted) is None


def test_rank_n_exit_is_gated_by_the_congruence():
    # axiom 1 holds and the weights at each vertex keep rank n, but one
    # weight change is not a multiple: the validation has no coefficient for
    # it, and both methods refuse the labeling with the first failure of axiom 3
    gkm = gen_projective(3)
    e = gkm.graph.edge_representatives()[-1]
    weights = dict(gkm.axial.weights)
    weights[e], weights[gkm.graph.reverse(e)] = (1, 2, 3), (-1, -2, -3)
    bent = gkm.with_weights(weights, gkm.n)
    assert any(None in vector for vector in bent.validation.coefficients.values())
    assert validate_gkm(bent).passed(1) and not validate_gkm(bent).passed(3)
    assert _agree_from_every_base(bent) is None
    assert _refusal(bent).startswith("axiom 3 fails at dart ")


def _oracle_cases():
    rng = random.Random(5)
    cases = {}
    for name, gkm in [(f"grassmannian{n}", gen_grassmannian(n)) for n in range(5, 11)] + [
        (f"projective{m}", gen_projective(m)) for m in (5, 9)
    ]:
        cases[name] = gkm
        cases[name + "-shuffled"] = GkmGraph(
            with_orderings(gkm.graph, shuffled_orderings(rng, gkm.graph)), gkm.axial, gkm.connection
        )
        cases[name + "-renamed"] = renamed_vertices(rng, gkm)
    for n in range(5, 11):  # projected by [I | 1] to rank n, with ℓ = n + 1: every non-tree edge is checked
        fold = IntegerMatrix.from_rows([[int(c == i) for c in range(n)] + [1] for i in range(n)])
        gkm = project_axial(gen_grassmannian(n), fold)
        cases[f"grassmannian{n}-projected"] = gkm
        cases[f"grassmannian{n}-projected-shuffled"] = GkmGraph(
            with_orderings(gkm.graph, shuffled_orderings(rng, gkm.graph)), gkm.axial, gkm.connection
        )
    return cases


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_propagation_matches_checking_every_edge(name):
    # past the reach of the full system: the solver that stops at rank n gives
    # the lattice of the propagation that checks every edge, bit for bit
    gkm = ORACLE_CASES[name]
    vertices = gkm.graph.vertices
    expected = axial_group_basis(gkm).coordinate_matrix
    for base in (vertices[0], vertices[len(vertices) // 2], vertices[-1]):
        renamed = with_first_vertex(gkm, base)
        basis = axial_group_basis(renamed)
        assert basis.coordinate_matrix == propagation_checking_every_edge(renamed)
        assert in_vertex_order(gkm, renamed, basis.coordinate_matrix) == expected


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
            renamed = with_first_vertex(gkm, v)
            other = axial_group_basis(renamed)
            assert other.rank == reference.rank, name
            assert in_vertex_order(gkm, renamed, other.coordinate_matrix) == reference.coordinate_matrix, name


def test_rank_is_ordering_independent():
    rng = random.Random(11)
    for name, gkm in core_fixtures().items():
        reference = axial_group_basis(gkm).rank
        for _ in range(3):
            g2 = with_orderings(gkm.graph, shuffled_orderings(rng, gkm.graph))
            gkm2 = GkmGraph(g2, gkm.axial, gkm.connection)
            assert axial_group_basis(gkm2).rank == reference, name


def test_canonical_elements_are_independent_lattice_members():
    for name, gkm in core_fixtures().items():
        canon = canonical_elements(gkm)
        assert len(canon) == gkm.n
        for el in canon:
            assert element_in_lattice(gkm, el), name
        verts = gkm.graph.vertices
        rows = [tuple(x for v in verts for x in el[v]) for el in canon]
        assert rational_rank(rows) == gkm.n, name
        # the restrictions to any single vertex already have full rank
        for v in verts:
            assert rational_rank([el[v] for el in canon]) == gkm.n, name


def test_restriction_to_any_vertex_is_injective():
    for name, gkm in core_fixtures().items():
        elements = basis_elements(gkm, axial_group_basis(gkm))
        for v in gkm.graph.vertices:
            rows = [el[v] for el in elements]
            assert rational_rank(rows) == len(elements), name


def test_grassmannian_tail_relations():
    # with the pinned ordering at the top vertex {n+1, n+2}, every solution
    # satisfies x_{2n-j} = -x_1 + x_{n-j} + x_{n+1} for j = 0..n-2
    for n in (2, 3, 4):
        gkm = gen_grassmannian(n)
        top = f"{n + 1:02d}.{n + 2:02d}"
        for el in basis_elements(gkm, axial_group_basis(gkm)):
            x = el[top]
            for j in range(n - 1):
                assert x[2 * n - j - 1] == -x[0] + x[n - j - 1] + x[n]


def test_rank_bounds():
    for name, gkm in core_fixtures().items():
        r = axial_group_basis(gkm).rank
        assert gkm.n <= r <= gkm.m, name
