"""Dense linear algebra over GF(q).

Row reduction, rank, nullspaces, membership and row-space intersections
on matrices of integer element codes.  A matrix always carries its column
count, so zero-row matrices keep a well-defined ambient dimension.  The
canonical form of a row space (reduced row echelon form with zero rows
dropped and pivot columns ascending) doubles as a subspace identity: two
row spaces are equal iff their canonical matrices are entrywise equal.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .field import _DTYPE, GF


class GfMatrix:
    """Immutable dense matrix over a GF instance."""

    __slots__ = ("field", "array", "_rref")

    def __init__(self, field: GF, data) -> None:
        arr = np.asarray(data)
        if arr.ndim != 2:
            raise ValueError(f"matrix data must be 2-D, got shape {arr.shape}")
        if arr.size:
            # Bools, floats and objects would be coerced silently, and an
            # out-of-range integer would wrap on the cast below.
            if arr.dtype.kind not in "iu":
                raise ValueError(
                    f"matrix entries must be integers, got dtype {arr.dtype}")
            if arr.min() < 0 or arr.max() >= field.q:
                raise ValueError(
                    f"matrix entries must be codes in 0..{field.q - 1}")
        arr = arr.astype(_DTYPE)
        arr.setflags(write=False)
        self.field = field
        self.array = arr
        self._rref: tuple[GfMatrix, tuple[int, ...]] | None = None

    @classmethod
    def zeros(cls, field: GF, rows: int, cols: int) -> "GfMatrix":
        return cls(field, np.zeros((rows, cols), dtype=_DTYPE))

    @classmethod
    def identity(cls, field: GF, n: int) -> "GfMatrix":
        return cls(field, np.eye(n, dtype=_DTYPE))

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def is_zero(self) -> bool:
        return not self.array.any()

    def transpose(self) -> "GfMatrix":
        return GfMatrix(self.field, self.array.T.copy())

    def delete_columns(self, cols: Sequence[int]) -> "GfMatrix":
        return GfMatrix(self.field, np.delete(self.array, list(cols), axis=1))

    # ------------------------------------------------------------------
    def rref(self) -> tuple["GfMatrix", tuple[int, ...]]:
        """Reduced row echelon form with zero rows dropped, plus pivots.

        The result is the unique canonical representative of the row
        space; the pivot columns come back sorted ascending (0-indexed).
        """
        if self._rref is not None:
            return self._rref
        f = self.field
        a = self.array.copy()
        n_rows, n_cols = a.shape
        pivots: list[int] = []
        r = 0
        for c in range(n_cols):
            if r == n_rows:
                break
            nz = np.flatnonzero(a[r:, c])
            if nz.size == 0:
                continue
            p = r + int(nz[0])
            if p != r:
                a[[r, p]] = a[[p, r]]
            pivot = int(a[r, c])
            if pivot != 1:
                a[r] = f.mul_table[int(f.inv_table[pivot])][a[r]]
            factors = f.neg_table[a[:, c]]
            factors[r] = 0
            if factors.any():
                a = f.vadd(a, f.mul_table[factors[:, None], a[r][None, :]])
            pivots.append(c)
            r += 1
        reduced = GfMatrix(f, a[:r])
        result = (reduced, tuple(pivots))
        reduced._rref = result  # rref is idempotent
        self._rref = result
        return result

    def canonical(self) -> "GfMatrix":
        return self.rref()[0]

    def rank(self) -> int:
        return self.rref()[0].rows

    def nullspace(self) -> "GfMatrix":
        """Canonical basis of {x : self @ x^T = 0}; cols - rank rows.

        One elimination of the column-reversed matrix: read back in the
        original order, each reduced row ends in its pivot 1.  The kernel
        vector of a free column f is 1 at f, 0 at the other free columns
        and minus the reduced entries at the pivot columns, all of which
        lie right of f.  So its leading 1 sits at f, and the vectors in
        ascending f already form the canonical RREF.
        """
        f, n_cols = self.field, self.cols
        reduced, pivots = GfMatrix(f, self.array[:, ::-1]).rref()
        pivots = [n_cols - 1 - c for c in pivots]
        free = np.delete(np.arange(n_cols), pivots)
        basis = np.zeros((len(free), n_cols), dtype=_DTYPE)
        basis[np.arange(len(free)), free] = 1
        basis[:, pivots] = f.neg_table[reduced.array[:, ::-1][:, free]].T
        kernel = GfMatrix(f, basis)
        kernel._rref = (kernel, tuple(free.tolist()))
        return kernel

    def __matmul__(self, other: "GfMatrix") -> "GfMatrix":
        if not isinstance(other, GfMatrix):
            return NotImplemented
        _require_same_field(self, other)
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch for product: {self.rows}x{self.cols} @ "
                f"{other.rows}x{other.cols}")
        f = self.field
        prods = f.mul_table[self.array[:, :, None], other.array[None, :, :]]
        return GfMatrix(f, f.vsum(prods, axis=1))

    def remainders(self, x: np.ndarray) -> np.ndarray:
        """The rows of a 2-D code array reduced modulo the row space.

        Each row loses its component along the canonical basis, so a
        remainder is zero at every pivot column, and zero everywhere iff
        its row lies in the row space.
        """
        f = self.field
        if x.shape[1] != self.cols:
            raise ValueError(f"vectors must have {self.cols} columns")
        reduced, pivots = self.rref()
        for k, pc in enumerate(pivots):
            coef = f.neg_table[x[:, pc]]
            if coef.any():
                x = f.vadd(x, f.mul_table[coef[:, None], reduced.array[k][None, :]])
        return x

    def row_space_contains(self, vectors) -> np.ndarray:
        """Boolean mask: which of the given row vectors lie in the row space."""
        x = np.array(vectors, dtype=_DTYPE, ndmin=2)
        return ~self.remainders(x).any(axis=1)

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GfMatrix):
            return NotImplemented
        return (self.field == other.field
                and self.array.shape == other.array.shape
                and bool(np.array_equal(self.array, other.array)))

    def __repr__(self) -> str:
        return f"GfMatrix({self.field!r}, {self.array.tolist()!r})"


def _require_same_field(a: GfMatrix, b: GfMatrix) -> None:
    if a.field != b.field:
        raise ValueError("matrices belong to different fields")


def _require_compatible(a: GfMatrix, b: GfMatrix) -> None:
    _require_same_field(a, b)
    if a.cols != b.cols:
        raise ValueError(f"column counts differ: {a.cols} vs {b.cols}")


def row_space_intersect(a: GfMatrix, b: GfMatrix) -> GfMatrix:
    """Canonical basis of rowspace(a) n rowspace(b).

    Uses the Zassenhaus block construction: reduce [[A A], [B 0]]; the
    rows whose left block vanished carry the intersection in their right
    block.  Cross-checked elsewhere against the dimension identity
    dim(U+V) + dim(U n V) = dim U + dim V.
    """
    _require_compatible(a, b)
    f, nc = a.field, a.cols
    if a.rows == 0 or b.rows == 0:
        return GfMatrix.zeros(f, 0, nc)
    top = np.hstack([a.array, a.array])
    bottom = np.hstack([b.array, np.zeros((b.rows, nc), dtype=_DTYPE)])
    reduced = GfMatrix(f, np.vstack([top, bottom])).canonical()
    mask = ~reduced.array[:, :nc].any(axis=1)
    return GfMatrix(f, reduced.array[mask, nc:]).canonical()
