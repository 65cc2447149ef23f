"""Building, verifying, and projecting weight-lattice extensions.

An extension re-labels the same graph with vectors in a larger lattice
``Z^ℓ`` so that a coordinate projection recovers the original weights and the
connection is unchanged.  Extensions to rank ``ℓ`` exist exactly when the
solution lattice has rank at least ``ℓ``, and the constructive direction
assembles the new weights from ``ℓ`` independent lattice elements whose first
``n`` are the canonical ones read off the original weights.
"""

from __future__ import annotations

from dataclasses import dataclass

from .axgroup import (
    AxialElement,
    AxialGroupBasis,
    axial_group_basis,
    canonical_elements,
)
from .axial import GkmGraph, ValidationReport, validate_gkm
from .errors import GkmError
from .intlinalg import (
    IntegerMatrix,
    complete_inside_lattice,
    invariant_factors,
    saturation,
    solve_left,
)


class RankExceededError(GkmError):
    """The requested rank is above the rank of the solution lattice."""


class EffectivenessError(GkmError):
    """No completion produced weights spanning the full lattice at every vertex."""


class NotSurjectiveError(GkmError):
    """The projection matrix is not onto the target lattice."""


class AxiomViolationError(GkmError):
    """A constructed labeling fails the axioms; carries the report text."""


class GraphMismatchError(GkmError):
    """Two labelings do not live on the same graph and orderings."""


@dataclass(frozen=True)
class ExtensionResult:
    gkm: GkmGraph
    projection: IntegerMatrix
    chosen_elements: tuple[AxialElement, ...]
    report: ValidationReport


@dataclass(frozen=True)
class ExtensionCheck:
    ok: bool
    projection: IntegerMatrix | None
    detail: str


def _assemble(gkm: GkmGraph, chosen: list[AxialElement]) -> GkmGraph:
    g = gkm.graph
    weights = {}
    for d in g.darts:
        p = g.source(d)
        j = g.dart_index(d)
        weights[d] = tuple(f.values[p][j] for f in chosen)
    return gkm.with_weights(weights, len(chosen))


def _only_axiom4(report: ValidationReport) -> bool:
    return bool(report.failures) and all(f.axiom == 4 for f in report.failures)


def extend_axial(
    gkm: GkmGraph, target_rank: int, basis: AxialGroupBasis | None = None
) -> ExtensionResult:
    """Extend the weights to rank ``target_rank``.

    The chosen elements start with the canonical ones, completed inside the
    solution lattice.  If the first completion fails the lattice-spanning
    axiom, the elements beyond the canonical block are replaced by a
    completion inside the saturation of the chosen span and validation is
    retried; a second failure raises :class:`EffectivenessError`.
    """
    n = gkm.axial.torus_rank
    if target_rank < n:
        raise ValueError(f"target rank {target_rank} is below the current rank {n}")
    if basis is None:
        basis = axial_group_basis(gkm)
    if target_rank > basis.rank:
        raise RankExceededError(
            f"no extension to rank {target_rank}: the solution lattice has rank {basis.rank}"
        )
    g = gkm.graph
    verts = g.vertices
    lattice_rows = [el.coordinates(verts) for el in basis.elements]
    canon = list(canonical_elements(gkm))
    chosen_rows = [el.coordinates(verts) for el in canon]
    completion, _ = complete_inside_lattice(chosen_rows, lattice_rows)
    extra = completion[: target_rank - n]
    chosen = canon + [AxialElement.from_coordinates(g, r) for r in extra]
    candidate = _assemble(gkm, chosen)
    report = validate_gkm(candidate)
    if _only_axiom4(report):
        # Retry with a completion inside the saturation of the chosen span:
        # scaled sublattices are never normalized silently.
        sat = saturation([el.coordinates(verts) for el in chosen], len(verts) * g.valence)
        completion2, _ = complete_inside_lattice(chosen_rows, sat)
        chosen = canon + [
            AxialElement.from_coordinates(g, r) for r in completion2[: target_rank - n]
        ]
        candidate = _assemble(gkm, chosen)
        report = validate_gkm(candidate)
        if _only_axiom4(report):
            where = report.failures_for(4)[0].where
            raise EffectivenessError(
                f"no completion spans the full lattice; first failure at {where}"
            )
    if not report.ok:
        raise AxiomViolationError(report.summary())
    projection = IntegerMatrix.from_rows(
        [[1 if k == i else 0 for k in range(target_rank)] for i in range(n)],
        target_rank,
    )
    return ExtensionResult(
        gkm=candidate,
        projection=projection,
        chosen_elements=tuple(chosen),
        report=report,
    )


def project_axial(gkm: GkmGraph, projection: IntegerMatrix) -> GkmGraph:
    """Compose the weights with a surjection onto a smaller lattice.

    The projection must be onto (all Smith invariant factors 1); the result
    keeps the graph and connection and is fully validated, so a projection
    that collapses some vertex's weights raises :class:`AxiomViolationError`.
    """
    if projection.ncols != gkm.axial.torus_rank:
        raise ValueError(
            f"projection has {projection.ncols} columns, expected {gkm.axial.torus_rank}"
        )
    facs = invariant_factors(projection)
    if len(facs) != projection.nrows or any(f != 1 for f in facs):
        raise NotSurjectiveError("the projection matrix is not onto the target lattice")
    weights = {d: projection.mul_vector(w) for d, w in gkm.axial.weights.items()}
    out = gkm.with_weights(weights, projection.nrows)
    report = validate_gkm(out)
    if not report.ok:
        raise AxiomViolationError(report.summary())
    return out


def verify_extension(base: GkmGraph, candidate: GkmGraph) -> ExtensionCheck:
    """Decide whether ``candidate`` extends ``base`` and exhibit the projection.

    Both labelings must live on the same graph with the same orderings.  The
    projection is solved from the weights at one vertex (they span, so it is
    unique if it exists) and then verified on every dart.
    """
    if base.graph != candidate.graph:
        raise GraphMismatchError("the two labelings live on different graphs")
    if base.connection != candidate.connection:
        return ExtensionCheck(False, None, "the connections differ")
    g = base.graph
    p = g.vertices[0]
    out = g.out_darts(p)
    big = IntegerMatrix.from_rows([candidate.weight(d) for d in out], candidate.n)
    big_t = big.transpose()
    rows = []
    for i in range(base.n):
        col = [base.weight(d)[i] for d in out]
        y = solve_left(big_t, col)
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
