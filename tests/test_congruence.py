import random

import pytest

from gkmgraph import (
    AxialError,
    AxiomFailure,
    AxiomViolationError,
    IntegerMatrix,
    gen_grassmannian,
    gen_projective,
    gen_s6,
    invariant_function,
)
from helpers import NotAMultipleError, coefficients_by_division, congruence_vector, core_fixtures, permutation_matrix


def _check_against_division(gkm) -> bool:
    """Check the validation of ``gkm`` against the division oracle; return whether a coefficient is missing.

    The vectors are those of dividing every dart on its own, the report names
    each out-dart with no integer coefficient as a failure of axiom 3, and
    ``invariant_function`` hands the vectors out only when every axiom holds,
    refusing otherwise with the first failure of the report.
    """
    g = gkm.graph
    report, coefficients = gkm.validation
    expected = coefficients_by_division(g, gkm.axial, gkm.connection)
    assert coefficients == expected
    misses = {
        AxiomFailure(3, f"dart {e}", f"weight change of {d} is not a multiple of the base weight")
        for e, vector in expected.items()
        for d, c in zip(g.out_darts(g.source(e)), vector)
        if c is None
    }
    assert set(report.failures_for(3)) == misses
    if report.ok:
        assert invariant_function(gkm) == coefficients
    else:
        with pytest.raises(AxiomViolationError) as exc:
            invariant_function(gkm)
        assert str(exc.value) == str(AxiomViolationError.from_report(report))
    return bool(misses)


def test_s6_invariant_vectors():
    inv = invariant_function(gen_s6())
    assert inv["e1"] == (-2, 1, 1)
    assert inv["e2"] == (1, -2, 1)
    assert inv["e3"] == (1, 1, -2)
    assert inv["e1~"] == (-2, 1, 1)


def test_s6_permutation_matrix():
    s6 = gen_s6()
    assert permutation_matrix(s6, "e1") == IntegerMatrix.from_rows(
        [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    )
    assert permutation_matrix(s6, "e2") == IntegerMatrix.from_rows(
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    )


def test_identity_permutation_matrix():
    # the single out-dart maps to the single out-dart: identity on positions
    gkm = gen_projective(1)
    for e in gkm.graph.darts:
        assert permutation_matrix(gkm, e) == IntegerMatrix.identity(1)


def test_triangle_vectors_are_permutations_of_minus2_minus1():
    # hand evaluation on the six darts of the difference-weighted triangle:
    # across any dart the remaining out-dart changes by -1 times the base
    gkm = gen_projective(2)
    inv = invariant_function(gkm)
    assert len(inv) == 6
    for e, vec in inv.items():
        assert sorted(vec) == [-2, -1]
        assert vec[gkm.graph.dart_index(e)] == -2


def test_grassmannian_coefficient_classes():
    for n in (1, 2, 3):
        gkm = gen_grassmannian(n)
        inv = invariant_function(gkm)
        g = gkm.graph
        for e, vec in inv.items():
            u = set(g.source(e).split("."))
            v = set(g.target(e).split("."))
            (old,) = u - v
            (new,) = v - u
            for d, c in zip(g.out_darts(g.source(e)), vec):
                if d == e:
                    assert c == -2
                    continue
                w = set(g.target(d).split("."))
                kept = u & w
                if kept == (u & v):
                    assert c == -1  # same kept element, different new one
                elif new in w:
                    assert c == -1  # the other route to a subset with the new element
                else:
                    assert c == 0


def test_own_position_is_minus_two_everywhere():
    for name, gkm in core_fixtures().items():
        inv = invariant_function(gkm)
        for e, vec in inv.items():
            assert vec[gkm.graph.dart_index(e)] == -2, name


def test_vector_transport_identity():
    # N_e applied to the vector at e gives the vector at the reverse dart
    for name, gkm in core_fixtures().items():
        inv = invariant_function(gkm)
        for e in gkm.graph.darts:
            ne = permutation_matrix(gkm, e)
            assert ne.mul_vector(inv[e]) == inv[gkm.graph.reverse(e)], (name, e)


def test_permutation_matrices_invert_pairwise():
    gkm = gen_grassmannian(2)
    m = gkm.graph.valence
    for e in gkm.graph.darts:
        prod = permutation_matrix(gkm, gkm.graph.reverse(e)) @ permutation_matrix(gkm, e)
        assert prod == IntegerMatrix.identity(m)


def test_invariant_function_matches_pairwise_coefficients_off_the_axioms():
    # weights perturbed at random (some zeroed): the validation hands on the
    # pairwise vector of each dart and names each missing coefficient, and
    # invariant_function refuses every bent labeling that fails an axiom
    rng = random.Random(11)
    failures = 0
    for gkm in core_fixtures().values():
        for trial in range(8):
            bend = (0.0, 0.01, 0.05, 0.2)[trial % 4]
            weights = {}
            for d, w in gkm.axial.weights.items():
                u = rng.random()
                weights[d] = (0,) * gkm.n if u < bend / 4 else tuple(x + (u < bend) * rng.choice((-1, 1)) for x in w)
            failures += _check_against_division(gkm.with_weights(weights, gkm.n))
    assert 0 < failures < len(core_fixtures()) * 8


def test_weight_of_the_wrong_length_is_an_axial_error():
    gkm = gen_s6()
    weights = dict(gkm.axial.weights, e1=gkm.weight("e1") + (0,))
    with pytest.raises(AxialError, match="weight of dart e1 has length 3, expected 2"):
        invariant_function(gkm.with_weights(weights, gkm.n))
    weights = {d: w for d, w in gkm.axial.weights.items() if d != "e3~"}  # and a missing weight
    with pytest.raises(AxialError, match=r"^dart e3~ carries no weight$"):
        invariant_function(gkm.with_weights(weights, gkm.n))


def test_packing_leaves_room_for_the_largest_quotient():
    # across e the weight change of d is (3, 1, 1) = 3·(1, 3, 0) + (0, -8, 1):
    # not a multiple; packed with fields of only 3 bits the remainder would
    # read as -8 + 1·8 = 0, so the field width must grow with the quotient
    gkm = gen_projective(3)
    g = gkm.graph
    e = g.darts[0]
    d = g.out_darts(g.source(e))[1]
    weights = dict(gkm.axial.weights)
    weights[e], weights[g.reverse(e)] = (1, 3, 0), (-1, -3, 0)
    weights[d], weights[gkm.connection[e][d]] = (0, 0, 0), (3, 1, 1)
    bent = gkm.with_weights(weights, gkm.n)
    with pytest.raises(NotAMultipleError, match=f"weight change of {d} across {e} is"):
        congruence_vector(bent, e)
    assert bent.validation.coefficients[e][g.dart_index(d)] is None
    assert _check_against_division(bent)


def test_packed_quotient_is_bounded_by_twice_the_largest_entry():
    # w(e) = (1, 0, 0) packs to 1 and the weight change (0, 1, 0) of d to
    # 2^s, so the packed division is exact with q = 2^s; only the bound
    # |q| <= 2M tells that (0, 1, 0) is not a multiple of (1, 0, 0)
    gkm = gen_projective(3)
    g = gkm.graph
    e = g.darts[0]
    d = g.out_darts(g.source(e))[1]
    weights = dict(gkm.axial.weights)
    weights[e], weights[g.reverse(e)] = (1, 0, 0), (-1, 0, 0)
    weights[d], weights[gkm.connection[e][d]] = (0, 0, 0), (0, 1, 0)
    bent = gkm.with_weights(weights, gkm.n)
    with pytest.raises(NotAMultipleError) as exc:
        {x: congruence_vector(bent, x) for x in g.darts}
    assert str(exc.value).startswith(f"weight change of {d} across {e} is")
    assert bent.validation.coefficients[e][g.dart_index(d)] is None
    assert _check_against_division(bent)


def test_zero_base_weight_with_no_weight_change_gives_zero_coefficients():
    gkm = gen_projective(3)
    g = gkm.graph
    e = g.darts[0]
    weights = dict(gkm.axial.weights)
    weights[e] = weights[g.reverse(e)] = (0,) * gkm.n
    for d in g.out_darts(g.source(e))[1:]:
        weights[gkm.connection[e][d]] = weights[d]
    bent = gkm.with_weights(weights, gkm.n)
    assert congruence_vector(bent, e) == (0, 0, 0)
    assert bent.validation.coefficients[e] == (0, 0, 0)
    _check_against_division(bent)
