"""Building, verifying, and projecting weight-lattice extensions.

An extension re-labels the same graph with vectors in a larger lattice
``Z^ℓ`` so that a coordinate projection recovers the original weights and the
connection is unchanged.  Extensions to rank ``ℓ`` exist exactly when the
solution lattice has rank at least ``ℓ``, and the constructive direction
assembles the new weights from ``ℓ`` independent lattice elements whose first
``n`` are the canonical ones read off the original weights.
"""

from __future__ import annotations

from typing import NamedTuple

from .axial import _first_failure, validate_gkm, validated
from .errors import GkmError
from .graph import GkmGraph
from .hermite import IntegerMatrix, _back_substitute, _spans, hermite_normal_form


class RankExceededError(GkmError):
    """The requested rank is above the rank of the solution lattice."""


class NotSurjectiveError(GkmError):
    """The projection matrix is not onto the target lattice."""


class GraphMismatchError(GkmError):
    """Two labelings do not live on the same graph and orderings."""


class ExtensionCheck(NamedTuple):
    ok: bool
    projection: IntegerMatrix | None
    detail: str


def extend_axial(gkm: GkmGraph, target_rank: int) -> GkmGraph:
    """Extend the weights to rank ``target_rank``; the first ``n`` coordinates are the old weights.

    An element is determined by its value at one vertex, so the canonical
    elements (the weight coordinates) are completed in ``Z^m``, restricted
    to the first vertex, inside the first vertex blocks ``row[:m]`` of the
    basis's ``coordinate_matrix`` in their order
    (:func:`~gkmgraph.intlinalg.complete_inside_lattice`), as coordinates in
    that basis.  The first ``target_rank - n`` of them, times the
    ``coordinate_matrix``, give each dart its new coordinates.  On valid
    input the canonical elements span a primitive sublattice, so the chosen
    elements are part of a basis of the lattice, and projecting by
    ``[I_n | 0]`` recovers ``gkm``.  ``gkm`` and the result must pass the
    axioms, or :class:`~gkmgraph.axial.AxiomViolationError` names the first
    failure.
    """
    from .axgroup import axial_group_basis
    from .intlinalg import complete_inside_lattice

    n = gkm.axial.torus_rank
    if target_rank < n:
        raise ValueError(f"target rank {target_rank} is below the current rank {n}")
    basis = axial_group_basis(gkm)
    if target_rank > basis.rank:
        raise RankExceededError(
            f"no extension to rank {target_rank}: the solution lattice has rank {basis.rank}"
        )
    g, w, m = gkm.graph, gkm.axial.weights, gkm.m
    canon = [tuple(w[d][i] for d in g.out_darts(g.vertices[0])) for i in range(n)]
    coords, _ = complete_inside_lattice(canon, [row[:m] for row in basis.coordinate_matrix.data])
    new = (IntegerMatrix.from_rows(coords[: target_rank - n], basis.rank) @ basis.coordinate_matrix).data
    darts = [d for v in g.vertices for d in g.out_darts(v)]
    weights = {d: w[d] + tuple(r[k] for r in new) for k, d in enumerate(darts)}
    return validated(gkm.with_weights(weights, target_rank))


def project_axial(gkm: GkmGraph, projection: IntegerMatrix) -> GkmGraph:
    """Compose the weights with a surjection onto a smaller lattice.

    ``gkm`` and the result must pass the axioms, or :class:`~gkmgraph.axial.AxiomViolationError`
    names the first failure; so a projection that collapses some vertex's
    weights is refused.  The projection must be onto: its columns span the
    target lattice, decided as axiom 4 decides that weights span, and that
    lattice must not be ``Z^0``.  The result keeps the graph and connection.
    """
    if not projection.nrows:
        raise ValueError("projection has no rows")
    validated(gkm)
    if projection.ncols != gkm.axial.torus_rank:
        raise ValueError(
            f"projection has {projection.ncols} columns, expected {gkm.axial.torus_rank}"
        )
    if not _spans(zip(*projection.data), projection.nrows):
        raise NotSurjectiveError("the projection matrix is not onto the target lattice")
    weights = {d: projection.mul_vector(w) for d, w in gkm.axial.weights.items()}
    return validated(gkm.with_weights(weights, projection.nrows))


def verify_extension(base: GkmGraph, candidate: GkmGraph) -> ExtensionCheck:
    """Decide whether ``candidate`` extends ``base`` and exhibit the projection.

    Both labelings must live on the same graph with the same orderings.  A
    base failing the axioms raises :class:`~gkmgraph.axial.AxiomViolationError`; a candidate
    failing them is no extension.  The projection is solved from the
    weights at one vertex (the candidate's span, so it is unique if it
    exists), one coordinate at a time against one HNF, and then verified on
    every dart.
    """
    validated(base)
    if base.graph != candidate.graph:
        raise GraphMismatchError("the two labelings live on different graphs")
    if base.connection != candidate.connection:
        return ExtensionCheck(False, None, "the connections differ")
    report = validate_gkm(candidate)
    if not report.ok:
        return ExtensionCheck(False, None, _first_failure(report))
    g = base.graph
    p = g.vertices[0]
    out = g.out_darts(p)
    big = IntegerMatrix.from_rows([candidate.weight(d) for d in out], candidate.n)
    h, u = hermite_normal_form(big.transpose())
    rows = []
    for i in range(base.n):
        y = _back_substitute(h, u, [base.weight(d)[i] for d in out])
        if y is None:
            return ExtensionCheck(
                False, None, f"no integer projection matches weight coordinate {i + 1}"
            )
        rows.append(y)
    pi = IntegerMatrix.from_rows(rows, candidate.n)
    for d in g.darts:
        if pi.mul_vector(candidate.weight(d)) != base.weight(d):
            return ExtensionCheck(False, None, f"projection fails at dart {d}")
    return ExtensionCheck(True, pi, "")
