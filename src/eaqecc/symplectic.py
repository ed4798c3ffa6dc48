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

One walk serves every field GF(p^m): the rows x^k r of each r in [M; R]
form a basis over GF(p), and blocks of words follow each other in modular
p-ary Gray order, one added row per step.  Only the vector format depends
on q: over GF(2) each (a|b) is packed into uint64 words (32 positions per
word, a in the low half) and weighed by population counts; other fields
keep int16 element codes.  Either way words add by `GF.vadd`: by XOR in
characteristic 2, through the add table for odd p.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CapExceededError
from .field import _DTYPE, GF
from .matrix import GfMatrix

DEFAULT_CAP = 1 << 22
_CHUNK_BITS = 14  # element codes: about 2^14 codewords of 2n entries per block
_GF2_CHUNK_BITS = 16  # packed words (q = 2): 2^16 codewords per block
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
        return {**asdict(self), "display": self.display()}


class LinearCode:
    """A linear code in F_q^{2n}, held as a canonical RREF basis.

    Instances are immutable; derived objects (the dual, weight minima,
    parameters) are cached on first use.
    """

    __slots__ = ("field", "n", "basis", "_dual", "_radical", "_minima")

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

    def require_dual_within_cap(self, cap: int) -> None:
        """Raise the CapExceededError that enumerating the dual would
        raise, before the dual's (2n - dim) x 2n basis is built."""
        required = self.field.q ** (2 * self.n - self.dim)
        if required > cap:
            raise CapExceededError(required, cap)

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

        The rows x^k r of each r in `rows` (q = p^e, k < e) are a basis
        over GF(p).  The first `low` of them span one block by repeated
        addition, so base-p digit i of a word's index is its coefficient
        on row i; the others step in modular p-ary Gray order (Knuth,
        TAOCP 7.2.1.1), where step g adds row low + t once, t the number
        of trailing zero base-p digits of g.
        """
        field, n = self.field, self.n
        p, q = field.p, field.q
        powers = field.mul_table[p ** np.arange(field.m)]  # x^k * a for all a
        digits = powers[:, rows].transpose(1, 0, 2).reshape(
            len(rows) * field.m, 2 * n)
        if q == 2:  # packed uint64 words
            vecs, low = _pack_gf2(digits, n), _GF2_CHUNK_BITS
        else:  # int16 element codes
            vecs = digits
            low = field.m * max(1, int(_CHUNK_BITS / math.log2(q)))
        low = min(len(vecs), low)
        block = np.zeros((vecs.shape[1], 1), dtype=vecs.dtype)
        for vec in vecs[:low]:
            layers = [block]
            for _ in range(p - 1):
                layers.append(field.vadd(layers[-1], vec[:, None]))
            block = np.concatenate(layers, axis=1)
            # Kept alive in this generator's frame, the layers would double
            # the live memory of a block and fault fresh pages every step.
            del layers
        m_digits = m * field.m  # M's rows lead, so M spans the first digits
        inside = p ** min(m_digits, low)  # words on M digits alone lead a block
        # The Gray code of g has the highest nonzero digit of g, so a
        # block's offset lies in M iff g < p^(m_digits - low).
        split = p ** max(0, m_digits - low)
        yield _weights(block, n, q, symplectic), inside
        offset = np.zeros(vecs.shape[1], dtype=vecs.dtype)
        for g in range(1, p ** (len(vecs) - low)):
            t, rest = low, g
            while rest % p == 0:
                t, rest = t + 1, rest // p
            offset = field.vadd(offset, vecs[t])
            yield (_weights(field.vadd(block, offset[:, None]), n, q, symplectic),
                   inside if g < split else 0)

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
        raise CapExceededError, before building a dual past the cap.
        """
        structural = self.structural_params()
        self.require_dual_within_cap(cap)
        dual = self.dual()
        exclude = self.radical() if structural.c else None
        d = dual.min_symplectic_weight(exclude=exclude, cap=cap)
        pure_d = dual.min_symplectic_weight(cap=cap)  # memoized by that pass
        return CodeParams(
            q=structural.q, n=structural.n, k=structural.k, d=d,
            c=structural.c, pure_d=pure_d,
            is_stabilizer_qecc=structural.is_stabilizer_qecc)

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
# vector formats of LinearCode._codeword_chunks
# ----------------------------------------------------------------------
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


def _weights(words: np.ndarray, n: int, q: int, symplectic: bool) -> np.ndarray:
    """Weights of the vectors in the columns of `words`: packed uint64
    words for q = 2, 2n element codes otherwise."""
    if q != 2:
        if symplectic:
            words = words[:n] | words[n:]
        return np.count_nonzero(words, axis=0)
    if symplectic:  # bit i of the low half: a_i | b_i
        words = (words & _LOW_HALF) | (words >> _HALF)
    counts = np.bitwise_count(words)
    return counts[0] if len(counts) == 1 else counts.sum(axis=0)


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
