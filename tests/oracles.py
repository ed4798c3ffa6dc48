"""Independent reference computations used to cross-check the library.

These deliberately take different routes than the implementation:
inverses by exhaustive search, field products by fresh schoolbook
polynomial arithmetic, reducibility by multiplying out every pair of
monic factors, minimum weights by growing-support enumeration
with RREF membership tests, and minima outside a subcode (or Hamming
minima) by a plain pure-Python walk over all coefficient tuples that
compares codewords as tuples, with no linear algebra.  Row-space sums
and the dense symplectic form matrix serve as references for the
library's kernels and radicals.
"""

import itertools

import numpy as np

from eaqecc import GfMatrix


def inverse_by_search(field, a: int) -> int:
    """Exhaustive search for the multiplicative inverse."""
    for b in range(1, field.q):
        if field.mul(a, b) == 1:
            return b
    raise AssertionError(f"no inverse found for {a} in GF({field.q})")


def mul_by_schoolbook(field, a: int, b: int) -> int:
    """Recompute a*b by convolving base-p digits and long division."""
    p, m = field.p, field.m
    da = [(a // p**j) % p for j in range(m)]
    db = [(b // p**j) % p for j in range(m)]
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    if m > 1:
        mod = list(field.irreducible)
        for top in range(len(prod) - 1, m - 1, -1):
            coef = prod[top]
            if coef:
                shift = top - m
                for k, c in enumerate(mod):
                    prod[shift + k] = (prod[shift + k] - coef * c) % p
    return sum(c * p**j for j, c in enumerate(prod[:m]))


def reducible_by_products(poly, p: int) -> bool:
    """Whether a monic poly (little-endian) over GF(p) is a product of two
    monic polynomials of positive degree, found by trying every pair."""
    m = len(poly) - 1
    target = [c % p for c in poly]
    for d in range(1, m // 2 + 1):
        for g_tail in itertools.product(range(p), repeat=d):
            for h_tail in itertools.product(range(p), repeat=m - d):
                g, h = g_tail + (1,), h_tail + (1,)
                prod = [0] * (m + 1)
                for i, x in enumerate(g):
                    for j, y in enumerate(h):
                        prod[i + j] = (prod[i + j] + x * y) % p
                if prod == target:
                    return True
    return False


def oracle_cost(n: int, q: int, up_to_weight: int) -> int:
    """Number of candidate vectors the growing-support oracle would visit."""
    from math import comb
    per_position = q * q - 1
    return sum(comb(n, w) * per_position**w for w in range(1, up_to_weight + 1))


def min_weight_by_growing_support(code, up_to_weight: int | None = None,
                                  batch: int = 4096, exclude=None) -> int | None:
    """Minimum symplectic weight via by-increasing-weight enumeration.

    For each candidate weight w, generates every vector whose nonzero
    pairs sit on a size-w support, and tests membership with an RREF
    solve; candidates that also lie in `exclude` do not count.  Returns
    the first w with a hit, or None if nothing is found up to
    `up_to_weight` (default n).
    """
    n, q = code.n, code.field.q
    if code.dim == 0:
        return None
    limit = n if up_to_weight is None else min(up_to_weight, n)
    pairs = [(x, y) for x in range(q) for y in range(q) if (x, y) != (0, 0)]
    for w in range(1, limit + 1):
        for support in itertools.combinations(range(n), w):
            assignments = itertools.product(pairs, repeat=w)
            while True:
                block = list(itertools.islice(assignments, batch))
                if not block:
                    break
                candidates = np.zeros((len(block), 2 * n), dtype=np.int16)
                for r, assignment in enumerate(block):
                    for pos, (x, y) in zip(support, assignment):
                        candidates[r, pos] = x
                        candidates[r, n + pos] = y
                hits = code.basis.row_space_contains(candidates)
                if exclude is not None and exclude.dim:
                    hits &= ~exclude.basis.row_space_contains(candidates)
                if hits.any():
                    return w
    return None


def _codewords(code):
    """Every codeword as a tuple, by a pure-Python walk: the words of the
    first i basis rows plus each multiple of row i + 1, so the words come
    in the order of their coefficient tuples."""
    f = code.field
    add = f.add_table.tolist()
    words = [(0,) * (2 * code.n)]
    for row in code.basis.array.tolist():
        multiples = [[f.mul(c, v) for v in row] for c in f.elements()]
        words = [tuple(add[a][b] for a, b in zip(word, mult))
                 for word in words for mult in multiples]
    return words


def word_weight(word, n: int, symplectic: bool = True) -> int:
    """Symplectic weight of a length-2n tuple, or its Hamming weight over
    all 2n entries."""
    if symplectic:
        return sum(1 for i in range(n) if word[i] or word[n + i])
    return sum(1 for v in word if v)


def min_weight_outside_bruteforce(code, exclude=None,
                                  symplectic: bool = True) -> int | None:
    """Minimum weight over the codewords of `code` that are not codewords
    of `exclude` (default: the zero code), by pure-Python enumeration of
    both codes.  `exclude` need not be a subcode.  Weights are symplectic,
    or Hamming over all 2n entries."""
    n = code.n
    skip = set(_codewords(exclude)) if exclude is not None else {(0,) * 2 * n}
    weights = [word_weight(word, n, symplectic)
               for word in _codewords(code) if word not in skip]
    return min(weights, default=None)


def min_hamming_weight_bruteforce(code) -> int | None:
    """Minimum Hamming weight by a pure-Python walk over all codewords."""
    weights = [sum(1 for v in word if v) for word in _codewords(code)]
    return min((w for w in weights if w), default=None)


def random_code(field, n: int, dim: int, rng) -> "LinearCode":
    """Random subspace of F_q^{2n} from `dim` uniform rows (dim may shrink)."""
    from eaqecc import LinearCode
    rows = [[rng.randrange(field.q) for _ in range(2 * n)] for _ in range(dim)]
    return LinearCode(field, n, rows)


def row_space_sum(a, b):
    """Canonical basis of rowspace(a) + rowspace(b), by stacking."""
    if a.field != b.field or a.cols != b.cols:
        raise ValueError("matrices live in different spaces")
    return GfMatrix(a.field, np.vstack([a.array, b.array])).canonical()


def symplectic_form_matrix(field, n: int):
    """The 2n x 2n block matrix [[0, I], [-I, 0]] defining the form."""
    arr = np.zeros((2 * n, 2 * n), dtype=np.int16)
    idx = np.arange(n)
    arr[idx, n + idx] = 1
    arr[n + idx, idx] = field.neg(1)
    return GfMatrix(field, arr)
