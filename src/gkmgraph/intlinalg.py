"""Smith invariant factors, lattice completion and saturation over the integers.

Built on the Hermite core of :mod:`gkmgraph.hermite`, and loaded only where
it is called: ``extend`` (completion inside the solution lattice).  The Smith
form is the independent check of what ``project`` decides by the Hermite form.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .graph import GkmError
from .hermite import IntegerMatrix, _back_substitute, _echelon, _xgcd, hermite_normal_form, integer_kernel_basis


class NotInLatticeError(GkmError):
    """A vector is not an integer combination of the given lattice basis."""


def invariant_factors(m: IntegerMatrix) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form: positive, each dividing the next.

    Alternates the row HNF of the matrix and of its transpose, dropping zero
    rows, until every row has a single nonzero entry (Kannan & Bachem, 1979).
    Each pass either lowers the leading entry of the unfinished block or
    clears that block's first row and column for good.  A gcd/lcm pass then
    turns the diagonal into a divisibility chain; the factors are unique, so
    that chain is the Smith diagonal.
    """
    rows, ncols = [list(row) for row in m.data], m.ncols
    while True:
        del rows[len(_echelon(rows, ncols)):]
        if all(len(row) - row.count(0) == 1 for row in rows):
            break
        rows, ncols = [list(col) for col in zip(*rows)], len(rows)
    d = [sum(row) for row in rows]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return tuple(d)


def complete_inside_lattice(
    chosen: Sequence[Sequence[int]],
    lattice: Sequence[Sequence[int]],
) -> tuple[list[tuple[int, ...]], int]:
    """Extend ``chosen`` to a full-rank family inside a lattice, of least index.

    ``lattice`` is a basis; each chosen vector must be an integer combination
    of it (``NotInLatticeError`` otherwise) and the chosen vectors must be
    linearly independent.  Returns ``(completion, index)``, the completion as
    coordinates in the lattice basis: ``chosen`` plus the vectors with those
    coordinates span a sublattice of index ``index``, the index of the span of
    ``chosen`` inside its saturation (1 exactly when primitive).

    The coordinates of ``chosen`` in the lattice basis come from one HNF of
    that basis, and the rest works on coordinates alone.  Column operations
    reduce their echelon form until row ``i`` vanishes outside the first
    ``i + 1`` pivot columns; the completion is read from the inverse
    operations at the non-pivot columns.  When every pivot is 1 it is the
    unit coordinates at the non-pivot columns, in order.  So the images of
    ``chosen`` and ``lattice`` under an injective linear map have the same
    completion and index, which is how
    :func:`~gkmgraph.extension.extend_axial` completes in ``Z^m``.
    """
    basis = [tuple(v) for v in lattice]
    if not basis:
        if chosen:
            raise NotInLatticeError("the lattice is trivial but chosen vectors were given")
        return [], 1
    h, u = hermite_normal_form(IntegerMatrix.from_rows(basis))
    rows = []  # coordinates of the chosen vectors in the lattice basis
    for v in chosen:
        x = _back_substitute(h, u, v)
        if x is None:
            raise NotInLatticeError(
                f"vector {tuple(v)} is not an integer combination of the lattice basis"
            )
        rows.append(list(x))
    r = len(basis)
    pivots = _echelon(rows, r)
    if len(pivots) != len(rows):
        raise ValueError("chosen vectors are not linearly independent")
    # inverse[j] is row j of the inverse of the column operations so far
    inverse = [[int(k == j) for k in range(r)] for j in range(r)]
    index = 1
    for i, p in enumerate(pivots):
        done = set(pivots[: i + 1])  # rows above i vanish outside pivots[:i]
        for j in range(r):
            a, c = rows[i][p], rows[i][j]
            if not c or j in done:
                continue
            if c % a == 0:
                q = c // a
                for row in rows[i:]:
                    row[j] -= q * row[p]
                inverse[p] = [x + q * y for x, y in zip(inverse[p], inverse[j])]
            else:
                g, s, t = _xgcd(a, c)
                u, v = a // g, c // g
                for row in rows[i:]:
                    row[p], row[j] = s * row[p] + t * row[j], u * row[j] - v * row[p]
                ip, ij = inverse[p], inverse[j]
                inverse[p] = [u * x + v * y for x, y in zip(ip, ij)]
                inverse[j] = [s * y - t * x for x, y in zip(ip, ij)]
        index *= rows[i][p]
    return [tuple(inverse[j]) for j in range(r) if j not in pivots], index


def saturation(vectors: Sequence[Sequence[int]], width: int) -> list[tuple[int, ...]]:
    """Canonical basis of the smallest saturated lattice containing the span.

    Double-kernel construction: the kernel of an integer matrix is always
    saturated, and the kernel of the kernel recovers the rational row span
    intersected with ``Z^width``.
    """
    ker = integer_kernel_basis(IntegerMatrix.from_rows(vectors, width))
    return integer_kernel_basis(IntegerMatrix.from_rows(ker, width))
