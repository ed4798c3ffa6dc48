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
on the characteristic.  For p = 2 the bits of an element code are its
GF(2) digits, so a vector (a|b) is held as m bit planes, plane k packing
bit k of every code into uint64 words (32 positions per word, a in the low
half), and words add by XOR; a position is nonzero when its bit is set in
any plane, so weights are population counts of the planes' OR.  Blocks
hold about 2^16 such words and are weighed in buffers allocated once per
walk; q = 2 is the one-plane case.  Odd p keeps int16 element codes,
added through the add table.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import CapExceededError
from .field import _DTYPE, GF
from .matrix import GfMatrix

DEFAULT_CAP = 1 << 22
_CHUNK_BITS = 14  # element codes: about 2^14 codewords of 2n entries per block
_GF2_CHUNK_BITS = 16  # bit planes (p = 2): about 2^16 uint64 words per block
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

    @property
    def is_stabilizer_qecc(self) -> bool:
        """True iff the code needs no entanglement (c = 0)."""
        return self.c == 0

    def display(self) -> str:
        d = "?" if self.d is None else str(self.d)
        return f"[[{self.n},{self.k},{d};{self.c}]]_{self.q}"

    def to_dict(self) -> dict:
        return {**asdict(self), "is_stabilizer_qecc": self.is_stabilizer_qecc,
                "display": self.display()}


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
        `start` on lie outside span(M).  The zero word comes first.  A
        yielded weights array may be a buffer that the next block
        overwrites, so it stays valid only until the walk resumes.

        The rows x^k r of each r in `rows` (q = p^e, k < e) are a basis
        over GF(p).  The first `low` of them span one block by repeated
        addition, so base-p digit i of a word's index is its coefficient
        on row i; the others step in modular p-ary Gray order (Knuth,
        TAOCP 7.2.1.1), where step g adds row low + t once, t the number
        of trailing zero base-p digits of g.

        For p = 2 a codeword is e bit planes of W packed uint64 words, and
        a block holds about 2^_GF2_CHUNK_BITS of these words: 2^16
        codewords when e W = 1, fewer for wider ones.  Each step XORs the
        block and its offset into one buffer.  For odd p a block holds
        about 2^_CHUNK_BITS codewords of 2n int16 element codes.
        """
        field, n, p = self.field, self.n, self.field.p
        powers = field.mul_table[p ** np.arange(field.m)]  # x^k * a for all a
        digits = powers[:, rows].transpose(1, 0, 2).reshape(
            len(rows) * field.m, 2 * n)
        if p == 2:  # e bit planes of packed uint64 words
            vecs = _pack_gf2(digits, n, field.m)
            low = max(0, _GF2_CHUNK_BITS - (vecs.shape[1] - 1).bit_length())
        else:  # int16 element codes
            vecs = digits
            low = field.m * max(1, int(_CHUNK_BITS / math.log2(field.q)))
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
        weigh = _weigher(field, n, block.shape, symplectic)
        yield weigh(block), inside
        if p == 2:
            shifted = np.empty_like(block)

            def shift(offset):
                return np.bitwise_xor(block, offset[:, None], out=shifted)
        else:
            def shift(offset):
                return field.vadd(block, offset[:, None])
        offset = np.zeros(vecs.shape[1], dtype=vecs.dtype)
        for g in range(1, p ** (len(vecs) - low)):
            t, rest = low, g
            while rest % p == 0:
                t, rest = t + 1, rest // p
            offset = field.vadd(offset, vecs[t])
            yield weigh(shift(offset)), inside if g < split else 0

    def _min_weight(self, symplectic: bool, exclude: "LinearCode | None",
                    cap: int) -> int | None:
        """Minimum weight over the codewords outside `exclude`; the same
        pass memoizes the minimum over the nonzero codewords per kind."""
        if exclude is None and symplectic in self._minima:
            return self._minima[symplectic]
        _refuse_past_cap(self.field.q, self.dim, cap)
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
        _refuse_past_cap(self.field.q, 2 * self.n - self.dim, cap)
        dual = self.dual()
        exclude = self.radical() if structural.c else None
        d = dual.min_symplectic_weight(exclude=exclude, cap=cap)
        pure_d = dual.min_symplectic_weight(cap=cap)  # memoized by that pass
        return replace(structural, d=d, pure_d=pure_d)

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
                          pure_d=None)


def _refuse_past_cap(q: int, e: int, cap: int) -> None:
    """Raise CapExceededError if q^e codewords exceed the cap.  q^e is built
    only below about 2^16 bits, or when 2^k <= q^e for k = e floor(log2 q)
    cannot decide, and then it has at most twice the cap's bits."""
    k = e * (q.bit_length() - 1)
    if e * math.log2(q) <= 1 << 16 or k < cap.bit_length():
        if (required := q ** e) > cap:
            raise CapExceededError(required, cap)
    else:
        raise CapExceededError(None, cap, log2=k)


# ----------------------------------------------------------------------
# vector formats of LinearCode._codeword_chunks
# ----------------------------------------------------------------------
def _pack_gf2(rows: np.ndarray, n: int, e: int) -> np.ndarray:
    """Vectors (a|b) over GF(2^e) as (len(rows), e W) uint64 bit planes,
    W = ceil(n / 32).

    Words kW to kW + W - 1 form plane k, which holds bit k of each element
    code: word j of a plane holds a[32j:32j+32] in its low half and
    b[32j:32j+32] in its high half, bit i for position 32j+i.
    """
    width, count = max(1, -(-n // _HALF)), len(rows)
    bits = np.zeros((count, e, 2, width * _HALF), dtype=np.uint8)
    bits[..., :n] = ((rows[:, None, :] >> np.arange(e)[:, None]) & 1).reshape(
        count, e, 2, n)
    # The 8 bytes of word j, least significant first: a's 32 bits, then b's.
    octets = np.packbits(bits.reshape(count, e, 2, width, _HALF).swapaxes(2, 3),
                         axis=-1, bitorder="little")
    return octets.reshape(count, e * width, 8).view("<u8")[..., 0].astype(np.uint64)


def _weigher(field: GF, n: int, shape: tuple[int, int], symplectic: bool):
    """The weights of the codewords in the columns of a `shape` block:
    2n element codes for odd p, e bit planes of W packed words for p = 2.

    The packed weights go through buffers allocated here, once per walk,
    so each call overwrites the array the previous call returned.
    """
    if field.p != 2:
        def weigh(words):
            if symplectic:
                words = words[:n] | words[n:]
            return np.count_nonzero(words, axis=0)
        return weigh
    e, cols = field.m, shape[1]
    width = shape[0] // e
    union = np.empty((width, cols), np.uint64)  # OR of the e planes, b >> 32
    folded = np.empty((width, cols), np.uint64)  # a | b in the low half
    counts = np.empty((width, cols), np.uint8)
    total = np.empty(cols, np.intp)

    def weigh(words):
        if e > 1:  # pairwise: faster than bitwise_or.reduce over planes
            planes = words.reshape(e, width, cols)
            words = np.bitwise_or(planes[0], planes[1], out=union)
            for plane in planes[2:]:
                np.bitwise_or(union, plane, out=union)
        if symplectic:  # bit i of the low half: a_i | b_i
            np.bitwise_and(words, _LOW_HALF, out=folded)
            words = np.bitwise_or(folded, np.right_shift(words, _HALF, out=union),
                                  out=folded)
        np.bitwise_count(words, out=counts)
        if width == 1:
            return counts[0]
        return np.add.reduce(counts, axis=0, out=total)
    return weigh


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
