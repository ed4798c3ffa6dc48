"""Exact arithmetic in GF(p^m) with elements stored as integer codes.

An element c0 + c1*x + ... + c_{m-1}*x^{m-1} of GF(p^m) is stored as the
integer c0 + c1*p + ... + c_{m-1}*p^{m-1} (little-endian base-p digits),
so codes run from 0 to q-1, with 0 the additive identity and 1 the
multiplicative identity.  Prime fields are plain integers mod p.

An extension field is GF(p)[x] modulo a monic polynomial f of degree m.
Multiplying by x is a linear map on digit vectors, given by the companion
matrix of f, so repeated products with that one m x m matrix give the
digits of x^j * b for every element b, and the whole multiplication table
is the digit contraction a * b = sum_j a_j * (x^j * b) mod p.  The same
table decides whether f is irreducible: GF(p)[x]/(f) is a field exactly
when it has no zero divisors, i.e. no product of two nonzero codes is 0.
Inverses are read off the table too, as the column of the 1 in each row.

Every field eagerly precomputes dense q x q numpy tables, applied to
whole arrays at once by fancy indexing; this caps the order at q <= 256,
far beyond where exhaustive weight enumeration stays practical.  Arrays
add by characteristic, in `GF.vadd` and `GF.vsum`: for p = 2 the bits of
a code are its GF(2) digits, so codes add by XOR; odd p uses the tables.

Built-in irreducible polynomials (little-endian coefficient tuples):

    GF(4): x^2 + x + 1   -> (1, 1, 1)
    GF(8): x^3 + x + 1   -> (1, 1, 0, 1)
    GF(9): x^2 + 1       -> (1, 0, 1)

Any other extension field requires an explicit polynomial.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

MAX_Q = 256

DEFAULT_IRREDUCIBLE: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
}

_DTYPE = np.int16


def prime_power_decomposition(q: int) -> tuple[int, int]:
    """Return (p, m) with q = p^m and p prime, or raise ValueError."""
    if not isinstance(q, int) or isinstance(q, bool) or q < 2:
        raise ValueError(f"field order must be an integer >= 2, got {q!r}")
    p = next(d for d in range(2, q + 1) if q % d == 0)  # smallest divisor is prime
    m = 0
    rest = q
    while rest % p == 0:
        rest //= p
        m += 1
    if rest != 1:
        raise ValueError(f"field order {q} is not a prime power")
    return p, m


def _validate_irreducible(poly: Sequence[int], p: int, m: int) -> tuple[int, ...]:
    poly = tuple(int(c) for c in poly)
    if len(poly) != m + 1:
        raise ValueError(
            f"irreducible polynomial needs {m + 1} coefficients for degree {m}, "
            f"got {len(poly)}")
    if any(c < 0 or c >= p for c in poly):
        raise ValueError(f"polynomial coefficients must lie in 0..{p - 1}")
    if poly[-1] != 1:
        raise ValueError("irreducible polynomial must be monic")
    return poly


class GF:
    """The finite field GF(q) for q = p^m, acting on integer element codes.

    Parameters
    ----------
    q : int
        Field order; a prime power with q <= 256.
    irreducible : sequence of int, optional
        Little-endian coefficients (length m+1, monic) of the modulus
        polynomial.  Ignored for prime q.  Extension fields fall back to
        the built-in defaults for q in {4, 8, 9} and otherwise require an
        explicit polynomial.

    Instances are immutable and safe to share between threads.  Products
    and inverses are table lookups; in characteristic 2 codes add by XOR.
    """

    __slots__ = ("p", "m", "q", "irreducible", "add_table", "neg_table",
                 "mul_table", "inv_table", "_digits", "_ppow")

    def __init__(self, q: int, irreducible: Sequence[int] | None = None) -> None:
        if isinstance(q, int) and q > MAX_Q:
            raise ValueError(f"field order {q} exceeds the supported cap {MAX_Q}")
        p, m = prime_power_decomposition(q)
        self.p = p
        self.m = m
        self.q = q
        if m == 1:
            self.irreducible = None  # modulus is just p
        else:
            poly = irreducible if irreducible is not None else DEFAULT_IRREDUCIBLE.get(q)
            if poly is None:
                raise ValueError(
                    f"GF({q}) has no built-in irreducible polynomial; pass one "
                    f"explicitly (length {m + 1}, monic, little-endian)")
            self.irreducible = _validate_irreducible(poly, p, m)
        self._build_tables()

    # ------------------------------------------------------------------
    # table construction
    # ------------------------------------------------------------------
    def _build_tables(self) -> None:
        p, m, q = self.p, self.m, self.q
        codes = np.arange(q, dtype=np.int64)
        digits = np.empty((q, m), dtype=np.int64)
        for j in range(m):
            digits[:, j] = (codes // p**j) % p
        ppow = p ** np.arange(m, dtype=np.int64)

        add = (((digits[:, None, :] + digits[None, :, :]) % p) @ ppow)
        neg = (((p - digits) % p) @ ppow)

        if m == 1:
            mul = (codes[:, None] * codes[None, :]) % p
        else:
            companion = np.eye(m, k=1, dtype=np.int64)
            companion[-1] = -np.asarray(self.irreducible[:m]) % p
            shifted = [digits]  # shifted[j][b] = digits of x^j * b
            for _ in range(1, m):
                shifted.append(shifted[-1] @ companion % p)
            prod = np.tensordot(digits, np.stack(shifted), axes=1)
            prod %= p
            mul = prod @ ppow
            if not mul[1:, 1:].all():
                raise ValueError(
                    f"polynomial is reducible over GF({p}): "
                    f"GF({p})[x] modulo it has zero divisors")

        self.add_table = add.astype(_DTYPE)
        self.neg_table = neg.astype(_DTYPE)
        self.mul_table = mul.astype(_DTYPE)
        # Row 0 holds no 1, so argmax gives 0 there.
        self.inv_table = (mul == 1).argmax(axis=1).astype(_DTYPE)

        self._digits = digits.astype(np.int64)
        self._ppow = ppow
        for table in (self.add_table, self.neg_table, self.mul_table,
                      self.inv_table, self._digits, self._ppow):
            table.setflags(write=False)

    def _pow_by_table(self, a: int, e: int) -> int:
        result, base = 1, a
        while e:
            if e & 1:
                result = int(self.mul_table[result, base])
            base = int(self.mul_table[base, base])
            e >>= 1
        return result

    # ------------------------------------------------------------------
    # scalar operations on element codes
    # ------------------------------------------------------------------
    def _check(self, a: int) -> int:
        code = int(a)
        if code < 0 or code >= self.q:
            raise ValueError(f"element code {a} is not in GF({self.q})")
        return code

    def add(self, a: int, b: int) -> int:
        """Coefficient-wise addition mod p."""
        return int(self.add_table[self._check(a), self._check(b)])

    def sub(self, a: int, b: int) -> int:
        return int(self.add_table[self._check(a), self.neg_table[self._check(b)]])

    def mul(self, a: int, b: int) -> int:
        """Polynomial product reduced modulo the field polynomial."""
        return int(self.mul_table[self._check(a), self._check(b)])

    def neg(self, a: int) -> int:
        return int(self.neg_table[self._check(a)])

    def inv(self, a: int) -> int:
        """Multiplicative inverse, read from the row of a in the product table.

        Raises ZeroDivisionError for the zero element.
        """
        code = self._check(a)
        if code == 0:
            raise ZeroDivisionError(f"0 has no multiplicative inverse in GF({self.q})")
        return int(self.inv_table[code])

    def pow(self, a: int, e: int) -> int:
        code = self._check(a)
        if e < 0:
            code = self.inv(code)
            e = -e
        return self._pow_by_table(code, e)

    def elements(self) -> range:
        """All q element codes in order 0..q-1."""
        return range(self.q)

    # ------------------------------------------------------------------
    # vectorized operations on arrays of element codes (no validation)
    # ------------------------------------------------------------------
    def vadd(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Elementwise sum; for p = 2 also of words packed from GF(2) digits."""
        return x ^ y if self.p == 2 else self.add_table[x, y]

    def vmul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.mul_table[x, y]

    def vsum(self, values: np.ndarray, axis: int) -> np.ndarray:
        """Field sum along a nonnegative axis: XOR for p = 2, else digit sums."""
        assert axis >= 0
        if self.p == 2:
            return np.bitwise_xor.reduce(np.asarray(values, dtype=_DTYPE), axis=axis)
        d = self._digits[np.asarray(values, dtype=np.int64)]
        s = d.sum(axis=axis, dtype=np.int64) % self.p
        return (s @ self._ppow).astype(_DTYPE)

    def vdot(self, x: np.ndarray, y: np.ndarray) -> int:
        """Euclidean inner product of two 1-D code arrays."""
        prods = self.vmul(np.asarray(x, dtype=_DTYPE), np.asarray(y, dtype=_DTYPE))
        if prods.size == 0:
            return 0
        return int(self.vsum(prods, axis=0))

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GF):
            return NotImplemented
        return (self.p, self.m, self.irreducible) == (other.p, other.m, other.irreducible)

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.irreducible))

    def __repr__(self) -> str:
        if self.m == 1 or self.irreducible == DEFAULT_IRREDUCIBLE.get(self.q):
            return f"GF({self.q})"
        return f"GF({self.q}, irreducible={self.irreducible})"
