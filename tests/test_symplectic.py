"""Symplectic products, weights, duals, parameters, and code enumeration."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eaqecc import (CapExceededError, GF, GfMatrix, LinearCode,
                    random_self_orthogonal, symplectic_product,
                    symplectic_weight)
from eaqecc import symplectic
from eaqecc.matrix import row_space_intersect

from conftest import (FIVE_QUBIT_DUAL_ROWS, FIVE_QUBIT_SHORTENED_DUAL_ROWS,
                      vec)
from oracles import (_codewords, min_hamming_weight_bruteforce,
                     min_weight_by_growing_support,
                     min_weight_outside_bruteforce, random_code,
                     symplectic_form_matrix, word_weight)

FIELDS = {q: GF(q) for q in (2, 3, 4, 5, 7, 8, 9)}
FIELDS[16] = GF(16, (1, 1, 0, 0, 1))  # x^4 + x + 1
FIELDS[256] = GF(256, (1, 0, 1, 1, 1, 0, 0, 0, 1))  # x^8 + x^4 + x^3 + x^2 + 1


# ---------------------------------------------------------------------
# products and weights
# ---------------------------------------------------------------------
def test_product_is_alternating(small_fields):
    rng = random.Random(5)
    for f in small_fields:
        for _ in range(20):
            n = rng.randrange(1, 6)
            x = [rng.randrange(f.q) for _ in range(2 * n)]
            assert symplectic_product(f, x, x) == 0


def test_product_gf2_example(gf2):
    assert symplectic_product(gf2, vec("10010|01100"), vec("01001|00110")) == 0


def test_product_gf3_sign_convention(gf3):
    assert symplectic_product(gf3, [1, 0], [0, 1]) == 1
    assert symplectic_product(gf3, [0, 1], [1, 0]) == 2


def test_product_antisymmetry_and_bilinearity():
    rng = random.Random(7)
    for q in (2, 3, 4, 5):
        f = FIELDS[q]
        for _ in range(25):
            n = rng.randrange(1, 5)
            x, y, z = (np.array([rng.randrange(q) for _ in range(2 * n)],
                                dtype=np.int16) for _ in range(3))
            lam = rng.randrange(q)
            assert symplectic_product(f, x, y) == f.neg(symplectic_product(f, y, x))
            lhs = symplectic_product(f, f.vadd(x, f.mul_table[lam, y]), z)
            rhs = f.add(symplectic_product(f, x, z),
                        f.mul(lam, symplectic_product(f, y, z)))
            assert lhs == rhs


def test_product_length_mismatch(gf2):
    with pytest.raises(ValueError):
        symplectic_product(gf2, [1, 0], [1, 0, 0, 0])
    with pytest.raises(ValueError):
        symplectic_product(gf2, [1, 0, 0], [1, 0, 0])


def test_weight_examples():
    assert symplectic_weight([0] * 10) == 0
    assert symplectic_weight(vec("10010|01100")) == 4
    assert symplectic_weight(vec("00000|11111")) == 5


# ---------------------------------------------------------------------
# duals
# ---------------------------------------------------------------------
def test_dual_of_full_space_is_zero(gf3):
    full = LinearCode(gf3, 2, np.eye(4, dtype=int))
    assert full.dual().dim == 0
    assert LinearCode(gf3, 2).dual() == full


def test_dual_of_five_qubit_code(five_qubit, gf2):
    dual = five_qubit.dual()
    assert dual.dim == 6
    assert dual == LinearCode(gf2, 5, FIVE_QUBIT_DUAL_ROWS)


def test_dual_rows_orthogonal_to_code(five_qubit, gf2):
    for drow in five_qubit.dual().basis.array:
        for crow in five_qubit.basis.array:
            assert symplectic_product(gf2, drow, crow) == 0


def test_dual_involution_and_dimension_random():
    rng = random.Random(13)
    for _ in range(150):
        f = FIELDS[rng.choice((2, 3, 4, 5))]
        n = rng.randrange(1, 7)
        code = random_code(f, n, rng.randrange(0, n + 1), rng)
        dual = code.dual()
        assert code.dim + dual.dim == 2 * n
        assert dual.dual() == code


# ---------------------------------------------------------------------
# self-orthogonality
# ---------------------------------------------------------------------
def test_self_orthogonality(five_qubit, gf2):
    assert LinearCode(gf2, 3).is_self_orthogonal()
    assert five_qubit.is_self_orthogonal()
    hyperbolic = LinearCode(gf2, 1, [[1, 0], [0, 1]])
    assert not hyperbolic.is_self_orthogonal()


# ---------------------------------------------------------------------
# minimum weights
# ---------------------------------------------------------------------
def test_min_weight_zero_code_undefined(gf2):
    assert LinearCode(gf2, 3).min_symplectic_weight() is None


def test_min_weight_five_qubit_dual(five_qubit):
    assert five_qubit.dual().min_symplectic_weight() == 3


def test_min_weight_shortened_dual(gf2):
    shortened = LinearCode(gf2, 4, FIVE_QUBIT_SHORTENED_DUAL_ROWS)
    assert shortened.min_symplectic_weight() == 3


def test_min_weight_cap(five_qubit):
    with pytest.raises(CapExceededError) as err:
        five_qubit.dual().min_symplectic_weight(cap=63)
    assert err.value.required == 64
    assert five_qubit.dual().min_symplectic_weight(cap=64) == 3


def test_cap_refusal_never_builds_a_huge_count():
    refuse = symplectic._refuse_past_cap
    refuse(2, 22, 1 << 22)
    with pytest.raises(CapExceededError) as err:
        refuse(2, 23, 1 << 22)
    assert err.value.required == 1 << 23
    # 3^(10^12) has 1.6 10^12 bits: only its lower bound 2^(10^12) shows.
    with pytest.raises(CapExceededError) as err:
        refuse(3, 10 ** 12, 1 << 22)
    assert err.value.required is None
    assert "at least 2^1000000000000 codewords" in str(err.value)
    # Past 2^16 bits, a cap the bound cannot beat still gets exact counts.
    cap = 3 ** 50000
    refuse(3, 50000, cap)
    with pytest.raises(CapExceededError) as err:
        refuse(3, 50001, cap)
    assert err.value.required == 3 * cap


def test_min_weight_exclude_subcode(five_qubit, gf2):
    dual = five_qubit.dual()
    assert dual.min_symplectic_weight(exclude=five_qubit) == 3
    not_a_subcode = LinearCode(gf2, 5, [[1] + [0] * 9])
    with pytest.raises(ValueError):
        dual.min_symplectic_weight(exclude=not_a_subcode)


def test_min_weight_exclude_everything_undefined(five_qubit):
    assert five_qubit.min_symplectic_weight(exclude=five_qubit) is None
    # Shapes from one block to several, and two-word packing at n = 40.
    for q, n, dim in [(2, 10, 19), (3, 4, 5), (3, 6, 10), (4, 3, 4),
                      (2, 40, 6)]:
        code = random_code(FIELDS[q], n, dim, random.Random(q * 100 + dim))
        assert code.min_symplectic_weight(exclude=code) is None
        assert code.min_hamming_weight(exclude=code) is None
        zero = LinearCode(code.field, n)
        assert (code.min_symplectic_weight(exclude=zero)
                == code.min_symplectic_weight())
        assert code.min_hamming_weight(exclude=zero) == code.min_hamming_weight()
        assert zero.min_symplectic_weight(exclude=zero) is None
        assert zero.min_hamming_weight() is None


def test_min_weight_matches_growing_support_oracle():
    rng = random.Random(29)
    checked = 0
    while checked < 40:
        f = FIELDS[rng.choice((2, 3))]
        n = rng.randrange(2, 6)
        code = random_code(f, n, rng.randrange(1, n + 1), rng)
        if code.dim == 0:
            continue
        assert code.min_symplectic_weight() == min_weight_by_growing_support(code)
        checked += 1


def test_distances_with_entanglement_match_oracles():
    """d, pure_d and the Hamming minima on duals, checked against three
    oracles, on seeded random codes with c > 0."""
    rng = random.Random(41)
    seen = {2: 0, 3: 0, 4: 0}
    while min(seen.values()) < 8:
        q = rng.choice(sorted(seen))
        n = rng.randrange(2, {2: 6, 3: 4, 4: 4}[q])
        code = random_code(FIELDS[q], n, rng.randrange(1, n + 1), rng)
        if code.structural_params().c == 0 or q ** (2 * n - code.dim) > 4096:
            continue
        seen[q] += 1
        p = code.params()
        dual = code.dual()
        meet = LinearCode(code.field, n,
                          row_space_intersect(code.basis, dual.basis))
        assert p.d == min_weight_outside_bruteforce(dual, exclude=code)
        assert p.d == min_weight_by_growing_support(dual, exclude=meet)
        assert p.pure_d == min_weight_outside_bruteforce(dual)
        assert p.pure_d == min_weight_by_growing_support(dual)
        fresh = LinearCode(code.field, n, dual.basis)  # no memoized minima
        assert fresh.min_symplectic_weight(exclude=meet) == p.d
        assert fresh.min_symplectic_weight() == p.pure_d
        w_h = fresh.min_hamming_weight()
        assert w_h == min_hamming_weight_bruteforce(dual)
        assert w_h == min_weight_outside_bruteforce(dual, symplectic=False)
        assert (fresh.min_hamming_weight(exclude=meet)
                == min_weight_outside_bruteforce(dual, exclude=code,
                                                 symplectic=False))
        # The memoized minima of the two weight kinds stay apart.
        assert fresh.min_symplectic_weight() == p.pure_d
        assert fresh.min_hamming_weight() == w_h


@pytest.mark.parametrize("q,n,dim,sub", [
    (2, 14, 19, 5), (2, 14, 19, 17),  # subcode inside / past the first block
    (3, 8, 10, 4), (3, 8, 10, 9),
    (4, 7, 9, 3), (4, 7, 9, 8),
    (8, 4, 6, 2), (8, 4, 6, 5),
    (9, 4, 6, 2), (9, 4, 6, 5),
])
def test_min_weight_exclude_across_blocks(q, n, dim, sub):
    """Codes of several enumeration blocks, excluding the span of the
    first `sub` basis rows, against growing-support enumeration."""
    code = random_code(FIELDS[q], n, dim, random.Random(7 * n + sub))
    assert code.dim == dim
    exclude = LinearCode(code.field, n, code.basis.array[:sub])
    expected = min_weight_by_growing_support(code, exclude=exclude)
    assert code.min_symplectic_weight(exclude=exclude) == expected
    assert code.min_symplectic_weight() == min_weight_by_growing_support(code)


@pytest.mark.parametrize("n", [31, 32, 33, 40, 64, 70])
def test_min_weight_packed_multiword(n):
    """Characteristic-2 codes wider than one 32-position word, so that
    each bit plane crosses words, against the pure-Python oracle."""
    for q, dims in [(2, (1, 3, 7)), (4, (1, 2, 4)), (8, (1, 2, 3)), (256, (1,))]:
        f, rng = FIELDS[q], random.Random(f"{q},{n}")
        for dim in dims:
            dense = random_code(f, n, dim, rng).basis.array
            # Sparse rows keep weights low enough to differ between words.
            sparse = [[rng.randrange(1, q) if rng.random() < 0.1 else 0
                       for _ in range(2 * n)] for _ in range(dim)]
            sparse[0][n - 1] = q // 2  # last position of a, top plane only
            sparse[-1][2 * n - 1] = q - 1  # last position of b, every plane
            for rows in (dense, sparse):
                code = LinearCode(f, n, rows)
                sub = LinearCode(f, n, code.basis.array[:1])
                assert code.min_symplectic_weight() == \
                    min_weight_outside_bruteforce(code)
                assert code.min_hamming_weight() == \
                    min_weight_outside_bruteforce(code, symplectic=False)
                assert code.min_symplectic_weight(exclude=sub) == \
                    min_weight_outside_bruteforce(code, exclude=sub)


@pytest.mark.parametrize("q", [2, 4])
def test_min_weight_wider_than_a_byte(q):
    """Per-word popcounts fit a byte, their sums over W words need not:
    the words of weight 2n = 400 must not wrap below the minimum, 200."""
    n = 200
    code = LinearCode(FIELDS[q], n, [[1] * (2 * n), [1] * n + [0] * n])
    assert code.min_hamming_weight() == n
    assert code.min_symplectic_weight() == n


@settings(derandomize=True, deadline=None)
@given(st.data())
def test_min_weight_characteristic_two_property(data):
    """Both weight kinds over GF(2^e), with and without a random subcode
    excluded, in blocks shrunk so that every walk reuses its buffers over
    many blocks."""
    q = data.draw(st.sampled_from([2, 4, 8, 16, 256]))
    f = FIELDS[q]
    n = data.draw(st.integers(1, 4))
    entries = st.lists(st.integers(0, q - 1), min_size=2 * n, max_size=2 * n)
    max_rows = {2: 6, 4: 3, 8: 2, 16: 2, 256: 1}[q]  # at most 256 words
    code = LinearCode(f, n, data.draw(st.lists(entries, max_size=max_rows)))
    coeffs = data.draw(st.lists(
        st.lists(st.integers(0, q - 1), min_size=code.dim, max_size=code.dim),
        min_size=1, max_size=code.dim + 1))
    exclude = LinearCode(f, n, GfMatrix(f, coeffs) @ code.basis
                         if code.dim else None)
    bits = data.draw(st.integers(1, 3))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(symplectic, "_GF2_CHUNK_BITS", bits)
        for kind in (True, False):
            for sub in (exclude, None):
                fresh = LinearCode(f, n, code.basis)  # no memoized minima
                assert fresh._min_weight(kind, sub, symplectic.DEFAULT_CAP) \
                    == min_weight_outside_bruteforce(code, sub, kind)


@pytest.mark.parametrize("q,n,dim,sub,bits", [
    # `bits` shrinks the block so that the codes span many blocks; M ends
    # inside the first block, or past it.  None keeps the real block size.
    (2, 6, 10, 2, 4), (2, 6, 10, 7, 4),
    (3, 4, 6, 1, 4), (3, 4, 6, 4, 4), (3, 5, 9, 4, None),
    (4, 4, 5, 1, 4), (4, 4, 5, 3, 4),
    (4, 4, 8, 3, None),
    (8, 3, 4, 1, 6), (8, 3, 4, 3, 6), (8, 3, 5, 2, None),
    (9, 3, 4, 1, 7), (9, 3, 4, 3, 7),
    (16, 2, 3, 1, 8), (16, 2, 3, 2, 8),
    (256, 2, 2, 1, 6), (256, 2, 2, 1, None),
])
def test_codeword_chunks_visit_every_word_once(monkeypatch, q, n, dim, sub,
                                               bits):
    """The blocks of `_codeword_chunks` hold every codeword once: their
    weight histograms equal the pure-Python walk's, and the words from
    each block's `start` on are exactly those outside the subcode M."""
    if bits is not None:
        monkeypatch.setattr(symplectic, "_CHUNK_BITS", bits)
        monkeypatch.setattr(symplectic, "_GF2_CHUNK_BITS", bits)
    code = random_code(FIELDS[q], n, dim, random.Random(f"{q},{n},{dim},{sub}"))
    assert code.dim == dim
    exclude = LinearCode(code.field, n, code.basis.array[:sub])
    inside = set(_codewords(exclude))
    words = list(_codewords(code))
    rows, m = code._coset_basis(exclude)
    for kind in (True, False):
        every, outside, blocks = Counter(), Counter(), 0
        for weights, start in code._codeword_chunks(rows, m, kind):
            every.update(weights.tolist())
            outside.update(weights[start:].tolist())
            blocks += 1
        assert blocks > 1
        assert every == Counter(word_weight(w, n, kind) for w in words)
        assert outside == Counter(word_weight(w, n, kind)
                                  for w in words if w not in inside)
        assert sum(outside.values()) == q ** dim - q ** sub


# ---------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------
def test_params_five_qubit(five_qubit):
    p = five_qubit.params()
    assert (p.q, p.n, p.k, p.d, p.c) == (2, 5, 1, 3, 0)
    assert p.pure_d == 3
    assert p.is_stabilizer_qecc
    assert p.display() == "[[5,1,3;0]]_2"


def test_params_punctured_five_qubit(gf2):
    from conftest import FIVE_QUBIT_PUNCTURED_ROWS
    p = LinearCode(gf2, 4, FIVE_QUBIT_PUNCTURED_ROWS).params()
    assert (p.q, p.n, p.k, p.d, p.c) == (2, 4, 1, 3, 1)
    assert p.display() == "[[4,1,3;1]]_2"
    assert not p.is_stabilizer_qecc


def test_params_zero_code(gf2):
    p = LinearCode(gf2, 3).params()
    assert (p.k, p.c, p.d) == (3, 0, 1)
    assert p.is_stabilizer_qecc


def test_params_hyperbolic_pair(gf2):
    # span{(1|0),(0|1)} with n=1 is the full space: c = 1, k = 0, and the
    # dual is the zero code, so both distances are undefined.
    code = LinearCode(gf2, 1, [[1, 0], [0, 1]])
    p = code.params()
    assert (p.c, p.k) == (1, 0)
    assert p.d is None and p.pure_d is None
    assert p.display() == "[[1,0,?;1]]_2"
    assert not p.is_stabilizer_qecc


def test_params_distance_excludes_radical(gf3):
    # The weight-1 word (000|001) commutes with the whole code, so it lies
    # in the radical: it sets pure_d = 1, while d, outside the radical, is 2.
    code = LinearCode(gf3, 3, [[1, 2, 0, 0, 0, 0], [0, 0, 0, 1, 2, 0],
                               [0, 0, 0, 0, 0, 1]])
    p = code.params()
    assert (p.k, p.c, p.pure_d, p.d) == (1, 1, 1, 2)
    assert p.d == min_weight_outside_bruteforce(code.dual(), exclude=code)


def test_params_on_self_orthogonal_specializes():
    rng = random.Random(31)
    for _ in range(25):
        f = FIELDS[rng.choice((2, 3, 4, 5))]
        n = rng.randrange(1, 6)
        code = random_self_orthogonal(f, n, rng.randrange(0, n + 1),
                                      seed=rng.randrange(10**6))
        p = code.params()
        assert p.c == 0
        assert p.k == n - code.dim
        assert p.d == p.pure_d
        assert p.is_stabilizer_qecc


def test_stabilizer_flag_is_self_orthogonality():
    """The radical, c, the dual and the stabilizer flag against the
    Zassenhaus intersection and the dense form matrix."""
    rng = random.Random(43)
    for q in (2, 3, 4, 5, 7, 8, 9):
        f = FIELDS[q]
        for _ in range(15):
            n = rng.randrange(1, 6)
            dim = rng.randrange(0, n + 1)
            for code in (random_code(f, n, dim, rng),
                         random_self_orthogonal(f, n, dim,
                                                seed=rng.randrange(10**6)),
                         LinearCode(f, n),
                         LinearCode(f, n, np.eye(2 * n, dtype=int))):
                p = code.structural_params()
                dual = code.dual()
                assert code.radical() == LinearCode(
                    f, n, row_space_intersect(code.basis, dual.basis))
                assert p.c == (code.dim - code.radical().dim) // 2
                assert dual.basis == \
                    (code.basis @ symplectic_form_matrix(f, n)).nullspace()
                assert p.is_stabilizer_qecc == (p.c == 0) \
                    == code.is_self_orthogonal()


def test_structural_params_skips_distances(five_qubit):
    p = five_qubit.structural_params()
    assert (p.k, p.c) == (1, 0)
    assert p.d is None and p.pure_d is None


# ---------------------------------------------------------------------
# random self-orthogonal generator
# ---------------------------------------------------------------------
def test_random_self_orthogonal_zero_dim(gf2):
    assert random_self_orthogonal(gf2, 4, 0, seed=3) == LinearCode(gf2, 4)


def test_random_self_orthogonal_postconditions():
    rng = random.Random(17)
    for _ in range(30):
        f = FIELDS[rng.choice((2, 3, 4, 5))]
        n = rng.randrange(1, 7)
        dim = rng.randrange(0, n + 1)
        code = random_self_orthogonal(f, n, dim, seed=rng.randrange(10**6))
        assert code.dim == dim
        assert code.is_self_orthogonal()
        assert code.dual().dim == 2 * n - dim


def test_random_self_orthogonal_deterministic(gf2):
    a = random_self_orthogonal(gf2, 5, 4, seed=42)
    b = random_self_orthogonal(gf2, 5, 4, seed=42)
    c = random_self_orthogonal(gf2, 5, 4, seed=43)
    assert a == b
    assert a.dim == 4 and a.dual().dim == 6
    assert a != c or a.basis == c.basis  # different seeds usually differ


def test_random_self_orthogonal_bad_dim(gf2):
    with pytest.raises(ValueError):
        random_self_orthogonal(gf2, 3, 4, seed=0)
