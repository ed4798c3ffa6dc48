"""Linear codes in F_q^{2n} under the symplectic inner product.

A vector (a|b) concatenates two length-n halves.  The symplectic product
of (a|b) and (c|d) is <a,d> - <b,c> (Euclidean products of the crossed
halves), and the symplectic weight of (a|b) counts the positions i with
(a_i, b_i) != (0, 0).  The dual of a code collects all vectors with zero
symplectic product against it; codes are stored in canonical reduced row
echelon form, so code equality is plain basis-matrix equality.

Parameter bookkeeping follows the stabilizer picture.  A code C of block
length n consumes c = (dim C - dim(C n dual(C))) / 2 preshared entangled
pairs and encodes k = c + n - dim C logical qudits.  Its distance d is
the minimum symplectic weight of the dual outside C (outside {0} when
c = 0), while the pure distance is the minimum over the dual minus the
zero vector.  Both are reported, since they can differ when c > 0.
The radical C n dual(C) comes from the kernel of the Gram matrix
G Lambda G^T of a basis G (Wilde & Brun, PRA 77, 064302); c follows from
its dimension, and it is the subcode of the dual that d excludes.

Weight minima are found by exhaustive codeword enumeration, guarded by a
codeword cap (default 2^22) so that accidental large runs fail fast with
a CapExceededError instead of hanging.  A minimum outside a subcode M
(the zero code by default) enumerates the code in a coset basis [M; R]:
the canonical basis of M, then an echelon basis R of the code's rows
reduced modulo M.  A codeword lies outside M exactly when one of its R
coefficients is nonzero, so the words of each block that lie outside M
follow from their coefficient indices, with no membership test, and one
pass yields both the minimum over the nonzero words and the minimum
outside M.  `params` therefore enumerates the dual once.

Over GF(2) each vector (a|b) is packed into uint64 words, 32 positions
per word with a in the low half and b in the high half; a block of 2^16
words is built by XOR doubling, the blocks follow each other in
Gray-code order (one XOR per step), and weights are population counts.
Other fields combine int16 element codes through the field's tables.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError
from .field import _DTYPE, GF
from .matrix import GfMatrix

DEFAULT_CAP = 1 << 22
_CHUNK_BITS = 14  # table path: about 2^14 codewords of 2n entries per block
_GF2_CHUNK_BITS = 16  # packed path: 2^16 codewords per block
_HALF = 32  # positions per packed word: a in the low half, b in the high
_LOW_HALF = np.uint64((1 << _HALF) - 1)


def symplectic_product(field: GF, x, y) -> int:
    """Symplectic inner product <(a|b),(c|d)> = <a,d> - <b,c>."""
    xv = np.asarray(x, dtype=_DTYPE)
    yv = np.asarray(y, dtype=_DTYPE)
    if xv.ndim != 1 or yv.ndim != 1 or xv.size != yv.size or xv.size % 2:
        raise ValueError("vectors must be 1-D with the same even length")
    for v in (xv, yv):
        if v.size and (v.min() < 0 or v.max() >= field.q):
            raise ValueError(f"vector entries must be codes in 0..{field.q - 1}")
    n = xv.size // 2
    ad = field.vdot(xv[:n], yv[n:])
    bc = field.vdot(xv[n:], yv[:n])
    return field.sub(ad, bc)


def symplectic_weight(x) -> int:
    """Number of positions i where the pair (a_i, b_i) is nonzero."""
    xv = np.asarray(x, dtype=_DTYPE)
    if xv.ndim != 1 or xv.size % 2:
        raise ValueError("vector must be 1-D with even length")
    n = xv.size // 2
    return int(np.count_nonzero((xv[:n] != 0) | (xv[n:] != 0)))


def symplectic_form_matrix(field: GF, n: int) -> GfMatrix:
    """The 2n x 2n block matrix [[0, I], [-I, 0]] defining the form."""
    arr = np.zeros((2 * n, 2 * n), dtype=_DTYPE)
    idx = np.arange(n)
    arr[idx, n + idx] = 1
    arr[n + idx, idx] = field.neg(1)
    return GfMatrix(field, arr)


@dataclass(frozen=True)
class CodeParams:
    """Parameter tuple of a stabilizer (entanglement-assisted) code.

    `d` and `pure_d` are None when the defining minimum ranges over an
    empty set, or when a report skips weight enumeration entirely.
    """

    q: int
    n: int
    k: int
    d: int | None
    c: int
    pure_d: int | None
    is_stabilizer_qecc: bool

    def display(self) -> str:
        d = "?" if self.d is None else str(self.d)
        return f"[[{self.n},{self.k},{d};{self.c}]]_{self.q}"

    def to_dict(self) -> dict:
        return {
            "q": self.q, "n": self.n, "k": self.k, "d": self.d, "c": self.c,
            "pure_d": self.pure_d,
            "is_stabilizer_qecc": self.is_stabilizer_qecc,
            "display": self.display(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CodeParams":
        return cls(q=data["q"], n=data["n"], k=data["k"], d=data["d"],
                   c=data["c"], pure_d=data["pure_d"],
                   is_stabilizer_qecc=data["is_stabilizer_qecc"])


class LinearCode:
    """A linear code in F_q^{2n}, held as a canonical RREF basis.

    Instances are immutable; derived objects (the dual, weight minima,
    parameters) are cached on first use.
    """

    __slots__ = ("field", "n", "basis", "_dual", "_radical", "_minima", "_params")

    def __init__(self, field: GF, n: int, rows=None) -> None:
        if n < 0:
            raise ValueError("block length n must be nonnegative")
        if rows is None:
            mat = GfMatrix.zeros(field, 0, 2 * n)
        elif isinstance(rows, GfMatrix):
            if rows.field != field:
                raise ValueError("basis matrix belongs to a different field")
            mat = rows
        else:
            data = [list(r) for r in rows]
            mat = (GfMatrix(field, data) if data
                   else GfMatrix.zeros(field, 0, 2 * n))
        if mat.cols != 2 * n:
            raise ValueError(f"basis needs 2n = {2 * n} columns, got {mat.cols}")
        self.field = field
        self.n = n
        self.basis = mat.canonical()
        self._dual: LinearCode | None = None
        self._radical: LinearCode | None = None
        self._minima: dict[bool, int | None] = {}  # nonzero minimum per kind
        self._params: CodeParams | None = None

    @property
    def dim(self) -> int:
        return self.basis.rows

    def codeword_count(self) -> int:
        return self.field.q ** self.dim

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return self.field == other.field and self.n == other.n and self.basis == other.basis

    def __repr__(self) -> str:
        return f"LinearCode({self.field!r}, n={self.n}, dim={self.dim})"

    # ------------------------------------------------------------------
    def contains(self, vector) -> bool:
        v = np.asarray(vector, dtype=_DTYPE)
        if v.ndim != 1 or v.size != 2 * self.n:
            raise ValueError(f"vector must have length {2 * self.n}")
        return bool(self.basis.row_space_contains(v)[0])

    def _half_swap(self) -> GfMatrix:
        """The basis times the form matrix: each row (a|b) becomes (-b|a)."""
        arr = self.basis.array
        return GfMatrix(self.field, np.hstack(
            [self.field.neg_table[arr[:, self.n:]], arr[:, :self.n]]))

    def dual(self) -> "LinearCode":
        """The symplectic dual; dim dual = 2n - dim."""
        if self._dual is None:
            self._dual = LinearCode(self.field, self.n,
                                    self._half_swap().nullspace())
        return self._dual

    def radical(self) -> "LinearCode":
        """C n dual(C): x G for x in the kernel of the alternating Gram
        matrix G Lambda G^T, where G is the basis."""
        if self._radical is None:
            gram = self._half_swap() @ self.basis.transpose()
            self._radical = LinearCode(self.field, self.n,
                                       gram.nullspace() @ self.basis)
        return self._radical

    def is_self_orthogonal(self) -> bool:
        """True iff all pairs of basis rows have symplectic product zero."""
        return self.radical().dim == self.dim

    # ------------------------------------------------------------------
    # exhaustive enumeration
    # ------------------------------------------------------------------
    def _coset_basis(self, exclude: "LinearCode | None") -> tuple[np.ndarray, int]:
        """A basis [M; R] of this code and the number m of its M rows.

        M is the canonical basis of `exclude` (empty when it is None), and
        R is an echelon basis of this code's rows reduced modulo M.  A
        codeword lies outside `exclude` iff one of its R coefficients is
        nonzero.  Raises ValueError unless `exclude` is a subcode.
        """
        if exclude is None:
            return self.basis.array, 0
        if exclude.field != self.field or exclude.n != self.n:
            raise ValueError("exclude code lives in a different space")
        rest = GfMatrix(self.field,
                        exclude.basis.remainders(self.basis.array)).canonical()
        # dim(C + M) = dim M + rank(C mod M), which is dim C iff M lies in C.
        if exclude.dim + rest.rows != self.dim:
            raise ValueError("exclude must be a subcode of the enumerated code")
        return np.vstack([exclude.basis.array, rest.array]), exclude.dim

    def _codeword_chunks(self, rows: np.ndarray, m: int, symplectic: bool):
        """Weights of all q^dim codewords, in blocks of bounded size.

        `rows` is a basis [M; R] of this code from `_coset_basis`.  Yields
        (weights, start) per block: the block's codewords from index
        `start` on lie outside span(M).  The zero word comes first.
        """
        if self.field.q == 2:
            return _gf2_chunks(rows, m, self.n, symplectic)
        return _table_chunks(self.field, rows, m, self.n, symplectic)

    def _min_weight(self, symplectic: bool, exclude: "LinearCode | None",
                    cap: int) -> int | None:
        """Minimum weight over the codewords outside `exclude`; the same
        pass memoizes the minimum over the nonzero codewords per kind."""
        if exclude is None and symplectic in self._minima:
            return self._minima[symplectic]
        required = self.codeword_count()
        if required > cap:
            raise CapExceededError(required, cap)
        rows, m = self._coset_basis(exclude)
        nonzero: int | None = None
        outside: int | None = None
        skip = 1  # the zero word
        for weights, start in self._codeword_chunks(rows, m, symplectic):
            if skip < len(weights):
                local = int(weights[skip:].min())
                nonzero = local if nonzero is None else min(nonzero, local)
            if start < len(weights):
                if start > skip:  # words outside M are nonzero: start >= skip
                    local = int(weights[start:].min())
                outside = local if outside is None else min(outside, local)
                if outside <= 1:
                    break  # cannot get lighter than a single position
            skip = 0
        self._minima[symplectic] = nonzero
        return outside

    def min_symplectic_weight(self, exclude: "LinearCode | None" = None,
                              cap: int = DEFAULT_CAP) -> int | None:
        """Minimum symplectic weight over this code minus `exclude`.

        `exclude` defaults to the zero code, so the zero vector is always
        skipped; it must be a subcode of this code.  Returns None when
        the enumeration domain is empty.  Raises CapExceededError when
        q^dim exceeds `cap`.
        """
        return self._min_weight(True, exclude, cap)

    def min_hamming_weight(self, exclude: "LinearCode | None" = None,
                           cap: int = DEFAULT_CAP) -> int | None:
        """Minimum Hamming weight, viewing codewords as plain length-2n vectors."""
        return self._min_weight(False, exclude, cap)

    # ------------------------------------------------------------------
    def params(self, cap: int = DEFAULT_CAP) -> CodeParams:
        """Full parameter tuple, including both distance flavors.

        Enumerates the dual once: when c > 0 the pass that finds the
        minimum outside the radical also finds the pure minimum.  It can
        raise CapExceededError.
        """
        if self._params is not None:
            return self._params
        structural = self.structural_params()
        dual = self.dual()
        exclude = self.radical() if structural.c else None
        d = dual.min_symplectic_weight(exclude=exclude, cap=cap)
        pure_d = dual.min_symplectic_weight(cap=cap)  # memoized by that pass
        self._params = CodeParams(
            q=structural.q, n=structural.n, k=structural.k, d=d,
            c=structural.c, pure_d=pure_d,
            is_stabilizer_qecc=structural.is_stabilizer_qecc)
        return self._params

    def structural_params(self) -> CodeParams:
        """Parameters that need no weight enumeration; distances stay None.

        Used by lemma reports, where the checks are purely dimensional and
        a full distance computation could blow the enumeration cap.
        """
        excess = self.dim - self.radical().dim
        assert excess % 2 == 0  # the form is nondegenerate modulo the radical
        c = excess // 2
        k = c + self.n - self.dim
        return CodeParams(q=self.field.q, n=self.n, k=int(k), d=None, c=int(c),
                          pure_d=None,
                          is_stabilizer_qecc=c == 0)


# ----------------------------------------------------------------------
# enumeration kernels behind LinearCode._codeword_chunks
# ----------------------------------------------------------------------
def _table_chunks(field: GF, rows: np.ndarray, m: int, n: int,
                  symplectic: bool):
    """LinearCode._codeword_chunks for any q, on int16 element codes.

    The first rows combine into one table of words, indexed so that the
    coefficient of row i is digit i in base q; the remaining rows step
    through every coefficient tuple as a common offset.
    """
    q, cols = field.q, rows.shape[1]
    low = min(len(rows), max(1, int(_CHUNK_BITS / math.log2(q))))
    words = np.zeros((1, cols), dtype=_DTYPE)
    for row in rows[:low]:
        variants = field.mul_table[:, row]  # all q scalar multiples of the row
        words = field.add_table[variants[:, None, :], words[None, :, :]]
        words = words.reshape(-1, cols)
    inside = q ** min(m, low)  # words on M rows alone lead the table
    split = max(0, m - low)  # offset digits below this belong to M rows
    for coeffs in itertools.product(range(q), repeat=len(rows) - low):
        offset = np.zeros(cols, dtype=_DTYPE)
        for coef, row in zip(coeffs, rows[low:]):
            if coef:
                offset = field.add_table[offset, field.mul_table[coef][row]]
        block = field.add_table[words, offset[None, :]]
        if symplectic:
            weights = np.count_nonzero(block[:, :n] | block[:, n:], axis=1)
        else:
            weights = np.count_nonzero(block, axis=1)
        yield weights, 0 if any(coeffs[split:]) else inside


def _pack_gf2(rows: np.ndarray, n: int) -> np.ndarray:
    """GF(2) vectors (a|b) as (len(rows), W) uint64, W = ceil(n / 32).

    Word j holds a[32j:32j+32] in its low half and b[32j:32j+32] in its
    high half, bit i for position 32j+i.
    """
    width = max(1, -(-n // _HALF))
    pad = ((0, 0), (0, width * _HALF - n))
    halves = [np.pad(rows[:, :n], pad), np.pad(rows[:, n:], pad)]
    bits = np.concatenate([h.reshape(len(rows), width, _HALF) for h in halves],
                          axis=2).astype(np.uint64)
    return np.bitwise_or.reduce(bits << np.arange(2 * _HALF, dtype=np.uint64),
                                axis=2)


def _gf2_weights(words: np.ndarray, symplectic: bool) -> np.ndarray:
    """Weights of the packed vectors in the columns of a (W, N) array."""
    if symplectic:  # bit i of the low half: a_i | b_i
        words = (words & _LOW_HALF) | (words >> _HALF)
    counts = np.bitwise_count(words)
    return counts[0] if len(counts) == 1 else counts.sum(axis=0)


def _gf2_chunks(rows: np.ndarray, m: int, n: int, symplectic: bool):
    """LinearCode._codeword_chunks for q = 2, on bit-packed words.

    The first rows combine into one block by XOR doubling, so bit i of a
    word's index is the coefficient of row i.  The remaining rows step in
    Gray-code order: each block differs from the last by one row, one
    XOR into the common offset.
    """
    packed = _pack_gf2(rows, n)
    low = min(len(packed), _GF2_CHUNK_BITS)
    inner = np.zeros((packed.shape[1], 1), dtype=np.uint64)
    for row in packed[:low]:
        inner = np.concatenate([inner, inner ^ row[:, None]], axis=1)
    inside = 1 << min(m, low)  # words on M rows alone lead the block
    split = max(0, m - low)  # offset bits below this belong to M rows
    yield _gf2_weights(inner, symplectic), inside
    offset = np.zeros(packed.shape[1], dtype=np.uint64)
    for g in range(1, 1 << (len(packed) - low)):
        offset ^= packed[low + (g & -g).bit_length() - 1]
        # The block's offset is the Gray code of g, whose highest set bit
        # is that of g: some R row is in it iff g >> split is nonzero.
        yield (_gf2_weights(inner ^ offset[:, None], symplectic),
               0 if g >> split else inside)


def random_self_orthogonal(field: GF, n: int, target_dim: int,
                           seed: int = 0) -> LinearCode:
    """Deterministic random code C with C inside dual(C) and the given dim.

    Grows the code one generator at a time: each step draws a uniformly
    random vector of the current span's symplectic dual (Mersenne Twister
    seeded with `seed`) and keeps it once it falls outside the span.  The
    dual is strictly larger than the span while dim < n, so this always
    terminates.
    """
    if not 0 <= target_dim <= n:
        raise ValueError(f"target_dim must be in 0..{n}, got {target_dim}")
    rng = random.Random(seed)
    code = LinearCode(field, n)
    while code.dim < target_dim:
        dual = code.dual()
        while True:
            coeffs = [[rng.randrange(field.q) for _ in range(dual.dim)]]
            vec = (GfMatrix(field, coeffs) @ dual.basis).array[0]
            if vec.any() and not code.contains(vec):
                break
        stacked = np.vstack([code.basis.array, vec[None, :]])
        code = LinearCode(field, n, GfMatrix(field, stacked))
    return code
