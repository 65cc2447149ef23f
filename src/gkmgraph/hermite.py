"""Exact linear algebra over the integers: the Hermite core.

Everything here runs on plain Python ints, so intermediate entries may grow
arbitrarily large without overflowing.  The normal form used throughout is the
row-style Hermite normal form: unimodular row operations only, echelon shape,
positive pivots, and entries above each pivot reduced into ``[0, pivot)``.
That form is canonical, which makes equality of lattices a plain ``==`` on
their basis matrices.

This core is what the solver (``rank``), axiom 4 (``validate``) and the
extension checks load, and ``project`` decides that its matrix is onto with
:func:`_spans`.  Lattice completion, which only ``extend`` runs, and the
Smith form, which no command runs, are in :mod:`gkmgraph.intlinalg`.  The
matrix record :class:`IntegerMatrix` is a ``NamedTuple`` like every other
record, and this module imports nothing else of the package.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, NamedTuple, Sequence


class IntegerMatrix(NamedTuple("IntegerMatrix", [("data", tuple[tuple[int, ...], ...]), ("ncols", int)])):
    """Immutable integer matrix: the record ``(data, ncols)``.

    ``ncols`` is stored explicitly so matrices with zero rows keep a
    well-defined shape.  Every way of building one, ``_make`` and
    ``_replace`` included, rejects rows of another length.
    """

    __slots__ = ()

    def __new__(cls, data: tuple[tuple[int, ...], ...], ncols: int):
        for row in data:
            if len(row) != ncols:
                raise ValueError("ragged rows in matrix")
        return super().__new__(cls, data, ncols)

    @classmethod
    def _make(cls, iterable) -> "IntegerMatrix":
        return cls(*iterable)

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
        return tuple(sum(map(mul, row, v)) for row in self.data)


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


def lattice_basis(vectors: Iterable[Sequence[int]], width: int) -> list[tuple[int, ...]]:
    """Canonical (HNF) basis of the lattice spanned by ``vectors`` in ``Z^width``."""
    rows = [list(v) for v in vectors]
    for row in rows:
        if len(row) != width:
            raise ValueError("vector length does not match width")
    _echelon(rows, width)
    return [tuple(row) for row in rows if any(row)]


def _spans(vectors: Iterable[Sequence[int]], width: int) -> bool:
    """Whether ``vectors`` span all of ``Z^width``: exactly when their canonical basis is the identity."""
    return lattice_basis(vectors, width) == [tuple(int(i == j) for j in range(width)) for i in range(width)]


def integer_kernel_basis(m: IntegerMatrix) -> list[tuple[int, ...]]:
    """Canonical basis of ``{x in Z^ncols : m @ x = 0}``.

    The kernel of an integer matrix is saturated, so the basis is primitive.
    Computed from the HNF transformation of the transpose: rows of ``u``
    matching zero rows of ``h`` span the kernel.
    """
    h, u = hermite_normal_form(m.transpose())
    kernel = [u.data[i] for i in range(h.nrows) if not any(h.data[i])]
    return lattice_basis(kernel, m.ncols)


def _back_substitute(h: IntegerMatrix, u: IntegerMatrix, target: Sequence[int]) -> tuple[int, ...] | None:
    """Integer row vector ``x`` with ``x @ m == target``, or ``None``, where ``(h, u)`` is the HNF of ``m``.

    It decides whether ``target`` lies in the row lattice of ``m``; many targets share one HNF.
    """
    if len(target) != h.ncols:
        raise ValueError("target length does not match column count")
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
