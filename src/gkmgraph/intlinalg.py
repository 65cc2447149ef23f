"""Exact linear algebra over the integers.

Everything here runs on plain Python ints, so intermediate entries may grow
arbitrarily large without overflowing.  The normal form used throughout is the
row-style Hermite normal form: unimodular row operations only, echelon shape,
positive pivots, and entries above each pivot reduced into ``[0, pivot)``.
That form is canonical, which makes equality of lattices a plain ``==`` on
their basis matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import GkmError


class NotInLatticeError(GkmError):
    """A vector is not an integer combination of the given lattice basis."""


@dataclass(frozen=True)
class IntegerMatrix:
    """Immutable integer matrix.

    ``ncols`` is stored explicitly so matrices with zero rows keep a
    well-defined shape.
    """

    data: tuple[tuple[int, ...], ...]
    ncols: int

    def __post_init__(self):
        for row in self.data:
            if len(row) != self.ncols:
                raise ValueError("ragged rows in matrix")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], ncols: int | None = None) -> "IntegerMatrix":
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if ncols is None:
            if not data:
                raise ValueError("ncols is required for a matrix with no rows")
            ncols = len(data[0])
        return cls(data, ncols)

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "IntegerMatrix":
        return cls(tuple((0,) * ncols for _ in range(nrows)), ncols)

    @property
    def nrows(self) -> int:
        return len(self.data)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def transpose(self) -> "IntegerMatrix":
        if not self.data:
            return IntegerMatrix(tuple(() for _ in range(self.ncols)), 0)
        return IntegerMatrix(tuple(zip(*self.data)), self.nrows)

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        if self.ncols == 0:
            return IntegerMatrix.zeros(self.nrows, other.ncols)
        cols = list(zip(*other.data))
        rows = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.data
        )
        return IntegerMatrix(rows, other.ncols)

    def mul_vector(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.ncols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.data)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, s, t)`` with ``s*a + t*b == g`` and ``g = gcd(a, b) >= 0``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _echelon(rows: list[list[int]], ncols: int) -> list[int]:
    """Reduce ``rows`` in place to canonical row HNF; return the pivot columns.

    Only the first ``ncols`` entries of each row take part in pivot selection;
    anything beyond rides along under the same row operations, which is how
    the transformation matrix is tracked.
    """
    r = 0
    pivots: list[int] = []
    for j in range(ncols):
        if r == len(rows):
            break
        piv = None
        for i in range(r, len(rows)):
            if rows[i][j]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            b = rows[i][j]
            if not b:
                continue
            a = rows[r][j]
            if b % a == 0:
                q = b // a
                rows[i] = [y - q * x for x, y in zip(rows[r], rows[i])]
            else:
                g, s, t = _xgcd(a, b)
                u, v = a // g, b // g
                rr, ri = rows[r], rows[i]
                rows[r] = [s * x + t * y for x, y in zip(rr, ri)]
                rows[i] = [u * y - v * x for x, y in zip(rr, ri)]
        if rows[r][j] < 0:
            rows[r] = [-x for x in rows[r]]
        p = rows[r][j]
        for i in range(r):
            q = rows[i][j] // p  # floor division leaves 0 <= entry < pivot
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        pivots.append(j)
        r += 1
    return pivots


def hermite_normal_form(m: IntegerMatrix) -> tuple[IntegerMatrix, IntegerMatrix]:
    """Return ``(h, u)`` with ``u`` unimodular and ``u @ m == h`` canonical.

    ``h`` has the same shape as ``m``; its nonzero rows count the rank.
    """
    n = m.nrows
    aug = [list(m.data[i]) + [1 if k == i else 0 for k in range(n)] for i in range(n)]
    _echelon(aug, m.ncols)
    h = IntegerMatrix.from_rows([row[: m.ncols] for row in aug], m.ncols)
    u = IntegerMatrix.from_rows([row[m.ncols:] for row in aug], n)
    return h, u


def matrix_rank(m: IntegerMatrix) -> int:
    rows = [list(row) for row in m.data]
    return len(_echelon(rows, m.ncols))


def lattice_basis(vectors: Iterable[Sequence[int]], width: int) -> list[tuple[int, ...]]:
    """Canonical (HNF) basis of the lattice spanned by ``vectors`` in ``Z^width``."""
    rows = [list(v) for v in vectors]
    for row in rows:
        if len(row) != width:
            raise ValueError("vector length does not match width")
    _echelon(rows, width)
    return [tuple(row) for row in rows if any(row)]


def integer_kernel_basis(m: IntegerMatrix) -> list[tuple[int, ...]]:
    """Canonical basis of ``{x in Z^ncols : m @ x = 0}``.

    The kernel of an integer matrix is saturated, so the basis is primitive.
    Computed from the HNF transformation of the transpose: rows of ``u``
    matching zero rows of ``h`` span the kernel.
    """
    h, u = hermite_normal_form(m.transpose())
    kernel = [u.data[i] for i in range(h.nrows) if not any(h.data[i])]
    return lattice_basis(kernel, m.ncols)


def invariant_factors(m: IntegerMatrix) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form: positive, each dividing the next."""
    a = [list(row) for row in m.data]
    nr, nc = len(a), m.ncols

    def clear_corner(t: int) -> None:
        # Alternate row and column eliminations until a[t][t] is the only
        # nonzero entry in its row and column.
        while True:
            for i in range(t + 1, nr):
                b = a[i][t]
                if not b:
                    continue
                p = a[t][t]
                if b % p == 0:
                    q = b // p
                    a[i] = [y - q * x for x, y in zip(a[t], a[i])]
                else:
                    g, s, u = _xgcd(p, b)
                    p_, b_ = p // g, b // g
                    rt, ri = a[t], a[i]
                    a[t] = [s * x + u * y for x, y in zip(rt, ri)]
                    a[i] = [p_ * y - b_ * x for x, y in zip(rt, ri)]
            col_dirty = False
            for j in range(t + 1, nc):
                b = a[t][j]
                if not b:
                    continue
                p = a[t][t]
                if b % p == 0:
                    q = b // p
                    for row in a:
                        row[j] -= q * row[t]
                else:
                    g, s, u = _xgcd(p, b)
                    p_, b_ = p // g, b // g
                    for row in a:
                        x, y = row[t], row[j]
                        row[t] = s * x + u * y
                        row[j] = p_ * y - b_ * x
                    col_dirty = True  # column t below row t may be nonzero again
            if not col_dirty and all(a[i][t] == 0 for i in range(t + 1, nr)):
                return

    factors: list[int] = []
    for t in range(min(nr, nc)):
        pos = next(
            ((i, j) for i in range(t, nr) for j in range(t, nc) if a[i][j]),
            None,
        )
        if pos is None:
            break
        i, j = pos
        if i != t:
            a[t], a[i] = a[i], a[t]
        if j != t:
            for row in a:
                row[t], row[j] = row[j], row[t]
        clear_corner(t)
        while True:
            p = a[t][t]
            bad = next(
                (i for i in range(t + 1, nr) if any(x % p for x in a[i][t + 1:])),
                None,
            )
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            clear_corner(t)
        factors.append(abs(a[t][t]))
    return tuple(factors)


def solve_left(m: IntegerMatrix, target: Sequence[int]) -> tuple[int, ...] | None:
    """Integer row vector ``x`` with ``x @ m == target``, or ``None``.

    Decides membership of ``target`` in the row lattice of ``m``.
    """
    if len(target) != m.ncols:
        raise ValueError("target length does not match column count")
    h, u = hermite_normal_form(m)
    residual = list(target)
    coeffs = [0] * h.nrows
    for i in range(h.nrows):
        row = h.data[i]
        j = next((k for k, x in enumerate(row) if x), None)
        if j is None:
            break
        q, r = divmod(residual[j], row[j])
        if r:
            return None
        if q:
            coeffs[i] = q
            residual = [x - q * y for x, y in zip(residual, row)]
    if any(residual):
        return None
    return tuple(
        sum(c * u.data[i][k] for i, c in enumerate(coeffs)) for k in range(u.ncols)
    )


def complete_inside_lattice(
    chosen: Sequence[Sequence[int]],
    lattice: Sequence[Sequence[int]],
) -> tuple[list[tuple[int, ...]], int]:
    """Extend ``chosen`` to a maximal independent family inside a lattice.

    ``lattice`` is a basis; each chosen vector must be an integer combination
    of it (``NotInLatticeError`` otherwise) and the chosen vectors must be
    linearly independent.  Returns ``(completion, index)`` where the appended
    vectors are members of the lattice basis and ``index`` is the index of the
    span of ``chosen`` inside the saturation of that span (1 when primitive).
    """
    basis = [tuple(v) for v in lattice]
    if not basis:
        if chosen:
            raise NotInLatticeError("the lattice is trivial but chosen vectors were given")
        return [], 1
    width = len(basis[0])
    b = IntegerMatrix.from_rows(basis, width)
    coords = []
    for v in chosen:
        x = solve_left(b, v)
        if x is None:
            raise NotInLatticeError(
                f"vector {tuple(v)} is not an integer combination of the lattice basis"
            )
        coords.append(x)
    r = len(basis)
    rows = [list(c) for c in coords]
    pivots = set(_echelon(rows, r))
    if len(pivots) != len(coords):
        raise ValueError("chosen vectors are not linearly independent")
    completion = [basis[j] for j in range(r) if j not in pivots]
    index = 1
    if coords:
        for d in invariant_factors(IntegerMatrix.from_rows(coords, r)):
            index *= d
    return completion, index


def saturation(vectors: Sequence[Sequence[int]], width: int) -> list[tuple[int, ...]]:
    """Canonical basis of the smallest saturated lattice containing the span.

    Double-kernel construction: the kernel of an integer matrix is always
    saturated, and the kernel of the kernel recovers the rational row span
    intersected with ``Z^width``.
    """
    mat = (
        IntegerMatrix.from_rows(vectors, width)
        if vectors
        else IntegerMatrix.zeros(0, width)
    )
    ker = integer_kernel_basis(mat)
    kmat = (
        IntegerMatrix.from_rows(ker, width) if ker else IntegerMatrix.zeros(0, width)
    )
    return integer_kernel_basis(kmat)
