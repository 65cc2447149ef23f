import random

import pytest

from gkmgraph.intlinalg import (
    IntegerMatrix,
    NotInLatticeError,
    complete_inside_lattice,
    hermite_normal_form,
    integer_kernel_basis,
    invariant_factors,
    lattice_basis,
    matrix_rank,
    saturation,
    solve_left,
)
from helpers import rational_rank


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
        # rank agrees with rational elimination
        assert matrix_rank(m) == rational_rank(m.data)


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
    basis = [(2, 1), (0, 3)]
    completion, index = complete_inside_lattice([], basis)
    assert completion == [(2, 1), (0, 3)]
    assert index == 1


def test_complete_reports_saturation_index():
    completion, index = complete_inside_lattice([(2, 0)], [(1, 0), (0, 1)])
    assert completion == [(0, 1)]
    assert index == 2


def test_complete_rejects_outside_vectors():
    with pytest.raises(NotInLatticeError):
        complete_inside_lattice([(1, 1)], [(2, 0), (0, 2)])


def test_invariant_factors():
    assert invariant_factors(IntegerMatrix.identity(3)) == (1, 1, 1)
    assert invariant_factors(IntegerMatrix.from_rows([[2, 0], [0, 3]])) == (1, 6)
    assert invariant_factors(IntegerMatrix.from_rows([[2, 1]])) == (1,)
    assert invariant_factors(IntegerMatrix.zeros(2, 2)) == ()
    facs = invariant_factors(IntegerMatrix.from_rows([[2, 0], [0, 4]]))
    assert facs == (2, 4)


def test_invariant_factors_divisibility_random():
    rng = random.Random(4)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), span=6)
        facs = invariant_factors(m)
        assert len(facs) == rational_rank(m.data)
        assert all(f > 0 for f in facs)
        for a, b in zip(facs, facs[1:]):
            assert b % a == 0


def test_solve_left():
    m = IntegerMatrix.from_rows([[1, 2, 0], [0, 2, 2]])
    x = solve_left(m, (1, 4, 2))
    assert x is not None
    assert tuple(
        sum(c * m.data[i][k] for i, c in enumerate(x)) for k in range(3)
    ) == (1, 4, 2)
    assert solve_left(m, (0, 1, 0)) is None  # not even in the rational span
    assert solve_left(m, (0, 1, 1)) is None  # rational but not integral


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
    assert integer_kernel_basis(m) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
