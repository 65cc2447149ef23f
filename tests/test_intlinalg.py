import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmgraph import extend_axial, project_axial
from gkmgraph.hermite import (
    IntegerMatrix,
    _back_substitute,
    _spans,
    hermite_normal_form,
    integer_kernel_basis,
    lattice_basis,
)
from gkmgraph.intlinalg import NotInLatticeError, complete_inside_lattice, invariant_factors, saturation
from helpers import core_fixtures, rational_rank, smith_by_minors


def random_matrix(rng, nrows, ncols, span=9):
    return IntegerMatrix.from_rows(
        [[rng.randint(-span, span) for _ in range(ncols)] for _ in range(nrows)], ncols
    )


def test_hnf_identity():
    m = IntegerMatrix.identity(3)
    h, u = hermite_normal_form(m)
    assert h == m
    assert u == IntegerMatrix.identity(3)


def test_hnf_zero():
    m = IntegerMatrix.zeros(2, 3)
    h, u = hermite_normal_form(m)
    assert h == m
    assert u == IntegerMatrix.identity(2)


def test_hnf_preserves_determinant_size():
    # hand oracle: det [[2,4],[1,3]] = 2*3 - 4*1 = 2 and the entries are coprime,
    # so the Smith form is diag(1, 2); u is unimodular exactly when its Smith form is I
    m = IntegerMatrix.from_rows([[2, 4], [1, 3]])
    h, u = hermite_normal_form(m)
    assert invariant_factors(m) == (1, 2)
    assert invariant_factors(h) == (1, 2)
    assert invariant_factors(u) == (1,) * u.nrows
    assert u @ m == h


def test_hnf_properties_random():
    rng = random.Random(1)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        h, u = hermite_normal_form(m)
        assert u @ m == h
        assert invariant_factors(u) == (1,) * u.nrows
        # idempotence: the HNF of an HNF is itself
        h2, _ = hermite_normal_form(h)
        assert h2 == h
        # rank, the number of nonzero HNF rows, agrees with rational elimination
        assert sum(map(any, h.data)) == rational_rank(m.data)


def test_hnf_pivots_are_canonical():
    h, _ = hermite_normal_form(IntegerMatrix.from_rows([[0, -2, 4], [0, 3, 1]]))
    # positive pivots, entries above reduced into [0, pivot)
    assert h == IntegerMatrix.from_rows([[0, 1, 5], [0, 0, 14]])


def test_kernel_of_injective_map_is_empty():
    assert integer_kernel_basis(IntegerMatrix.identity(4)) == []


def test_kernel_of_sum_functional():
    basis = integer_kernel_basis(IntegerMatrix.from_rows([[1, 1, 1]]))
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0


def test_kernel_rank_nullity_random():
    rng = random.Random(2)
    for _ in range(25):
        m = random_matrix(rng, 4, 6, span=5)
        basis = integer_kernel_basis(m)
        for v in basis:
            assert m.mul_vector(v) == (0,) * 4
        assert rational_rank(m.data) + len(basis) == 6


def test_kernel_is_primitive():
    # kernel of [2, -2] is spanned by (1, 1), not (2, 2)
    assert integer_kernel_basis(IntegerMatrix.from_rows([[2, -2]])) == [(1, 1)]


def test_canonical_basis_is_lattice_invariant():
    rng = random.Random(3)
    from helpers import random_unimodular

    for _ in range(25):
        k, d = rng.randint(1, 3), rng.randint(3, 5)
        rows = [[rng.randint(-5, 5) for _ in range(d)] for _ in range(k)]
        u = random_unimodular(rng, k)
        transformed = (u @ IntegerMatrix.from_rows(rows, d)).data
        assert lattice_basis(rows, d) == lattice_basis(transformed, d)


def test_complete_inside_standard_basis():
    completion, index = complete_inside_lattice(
        [(1, 0, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    )
    assert completion == [(0, 1, 0), (0, 0, 1)]
    assert index == 1


def test_complete_with_empty_prefix_returns_basis():
    # the completion is read as coordinates in the lattice basis: the whole
    # basis is the unit coordinates
    basis = [(2, 1), (0, 3)]
    completion, index = complete_inside_lattice([], basis)
    assert completion == [(1, 0), (0, 1)]
    assert index == 1
    assert complete_inside_lattice([], []) == ([], 1)


def test_complete_reports_saturation_index():
    completion, index = complete_inside_lattice([(2, 0)], [(1, 0), (0, 1)])
    assert completion == [(0, 1)]
    assert index == 2


def _smith_product(rows, ncols):
    product = 1
    for f in invariant_factors(IntegerMatrix.from_rows(rows, ncols)):
        product *= f
    return product


def test_complete_primitive_vector_with_pivot_above_one():
    # (2, 3) is primitive but its echelon pivot is 2: the completion must not
    # be the basis vector at the non-pivot column, which leaves index 2
    completion, index = complete_inside_lattice([(2, 3)], [(1, 0), (0, 1)])
    assert index == 1
    assert invariant_factors(IntegerMatrix.from_rows([(2, 3)] + completion)) == (1, 1)


def test_complete_has_least_index_random():
    rng = random.Random(7)
    checked = 0
    while checked < 60:
        r = rng.randint(1, 5)
        width = r + rng.randint(0, 2)
        basis = random_matrix(rng, r, width, span=4)
        k = rng.randint(0, r)
        coords = random_matrix(rng, k, r, span=4).data
        if rational_rank(basis.data) < r or (coords and rational_rank(coords) < k):
            continue
        chosen = [(IntegerMatrix.from_rows([row], r) @ basis).data[0] for row in coords]
        completion, index = complete_inside_lattice(chosen, basis.data)
        assert len(completion) == r - k
        completed = list(coords) + completion
        assert len(invariant_factors(IntegerMatrix.from_rows(completed, r))) == r
        assert _smith_product(completed, r) == index
        assert index == _smith_product(coords, r)
        checked += 1


def test_complete_rejects_outside_vectors():
    with pytest.raises(NotInLatticeError):
        complete_inside_lattice([(1, 1)], [(2, 0), (0, 2)])
    with pytest.raises(NotInLatticeError, match="the lattice is trivial"):
        complete_inside_lattice([(0, 0)], [])
    with pytest.raises(ValueError, match=r"^chosen vectors are not linearly independent$"):
        complete_inside_lattice([(1, 2), (2, 4)], [(1, 0), (0, 1)])


def test_invariant_factors():
    assert invariant_factors(IntegerMatrix.identity(3)) == (1, 1, 1)
    assert invariant_factors(IntegerMatrix.from_rows([[2, 0], [0, 3]])) == (1, 6)
    assert invariant_factors(IntegerMatrix.from_rows([[2, 1]])) == (1,)
    assert invariant_factors(IntegerMatrix.zeros(2, 2)) == ()
    facs = invariant_factors(IntegerMatrix.from_rows([[2, 0], [0, 4]]))
    assert facs == (2, 4)
    # three, two and five alternations of row and column HNF, then empty shapes
    for rows, ncols, factors in [
        ([[2, 1], [0, 2]], 2, (1, 4)),
        ([[4, 6, 0], [0, 4, 6], [6, 0, 4]], 3, (2, 2, 70)),
        ([[9, -6, 2], [9, 2, -5], [-6, 0, -3]], 3, (1, 1, 372)),
        ([], 3, ()),
        ([[], [], []], 0, ()),
        ([[0, 0], [0, 3], [0, 0]], 2, (3,)),
    ]:
        assert smith_by_minors(rows, ncols) == factors
        assert invariant_factors(IntegerMatrix.from_rows(rows, ncols)) == factors


def test_invariant_factors_divisibility_random():
    rng = random.Random(4)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), span=6)
        facs = invariant_factors(m)
        assert len(facs) == rational_rank(m.data)
        assert all(f > 0 for f in facs)
        for a, b in zip(facs, facs[1:]):
            assert b % a == 0


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_invariant_factors_match_the_minors(data):
    nrows, ncols = data.draw(st.integers(0, 4), label="rows"), data.draw(st.integers(0, 5), label="cols")
    row = st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols)
    rows = data.draw(st.lists(row, min_size=nrows, max_size=nrows), label="matrix")
    assert invariant_factors(IntegerMatrix.from_rows(rows, ncols)) == smith_by_minors(rows, ncols)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_columns_span_exactly_when_every_invariant_factor_is_one(data):
    # project_axial decides that a projection is onto by the Hermite form of
    # its columns, as axiom 4 decides that weights span; the Smith form agrees
    nrows, ncols = data.draw(st.integers(0, 4), label="rows"), data.draw(st.integers(1, 5), label="cols")
    row = st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)
    m = IntegerMatrix.from_rows(data.draw(st.lists(row, min_size=nrows, max_size=nrows), label="matrix"), ncols)
    factors = invariant_factors(m)
    assert _spans(zip(*m.data), nrows) == (factors == (1,) * nrows)


@pytest.mark.parametrize("name", sorted(core_fixtures()))
def test_invariant_factors_match_the_minors_on_vertex_matrices(name):
    # the weights at each vertex of a fixture and, from n = 3 on, of its
    # projection by [I | 2, 4, ...] and of the extension of that back to rank n
    gkm = core_fixtures()[name]
    n = gkm.n
    labelings = [gkm]
    if n >= 3:
        pi = IntegerMatrix.from_rows([[int(i == j) for j in range(n - 1)] + [2 * i + 2] for i in range(n - 1)], n)
        projected = project_axial(gkm, pi)
        labelings += [projected, extend_axial(projected, n)]
    for labeling in labelings:
        g, w, k = labeling.graph, labeling.axial.weights, labeling.n
        for v in g.vertices:
            rows = [w[d] for d in g.out_darts(v)]
            assert invariant_factors(IntegerMatrix.from_rows(rows, k)) == smith_by_minors(rows, k), (name, k, v)


def test_solve_left():
    m = IntegerMatrix.from_rows([[1, 2, 0], [0, 2, 2]])
    hnf = hermite_normal_form(m)
    x = _back_substitute(*hnf, (1, 4, 2))
    assert x is not None
    assert tuple(
        sum(c * m.data[i][k] for i, c in enumerate(x)) for k in range(3)
    ) == (1, 4, 2)
    assert _back_substitute(*hnf, (0, 1, 0)) is None  # not even in the rational span
    assert _back_substitute(*hnf, (0, 1, 1)) is None  # rational but not integral


def test_saturation():
    assert saturation([(2, 0)], 2) == [(1, 0)]
    assert saturation([(2, 2)], 2) == [(1, 1)]
    assert saturation([], 2) == []
    assert saturation([(1, 0), (0, 1)], 2) == [(1, 0), (0, 1)]


def test_matrix_shape_guards():
    with pytest.raises(ValueError):
        IntegerMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntegerMatrix.from_rows([])
    m = IntegerMatrix.zeros(0, 3)
    assert m.transpose().shape == (3, 0)
    assert IntegerMatrix.zeros(2, 0) @ IntegerMatrix.zeros(0, 3) == IntegerMatrix.zeros(2, 3)
    assert integer_kernel_basis(m) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
