"""Field arithmetic: frozen examples, axioms, and construction errors."""

import functools
import itertools

import numpy as np
import pytest

from eaqecc import GF, prime_power_decomposition

from oracles import inverse_by_search, mul_by_schoolbook, reducible_by_products

AXIOM_ORDERS = [2, 3, 4, 5, 7, 8, 9, 16]

# Irreducible moduli (little-endian) for orders without a built-in one.
EXPLICIT_MODULI = {
    16: (1, 1, 0, 0, 1),               # x^4 + x + 1
    27: (1, 2, 0, 1),                  # x^3 + 2x + 1
    64: (1, 1, 0, 0, 0, 0, 1),         # x^6 + x + 1
    81: (2, 1, 0, 0, 1),               # x^4 + x + 2
    125: (2, 3, 0, 1),                 # x^3 + 3x + 2
    256: (1, 1, 0, 1, 1, 0, 0, 0, 1),  # x^8 + x^4 + x^3 + x + 1
}


def make_field(q):
    return GF(q, EXPLICIT_MODULI.get(q))


# ---------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------
def test_prime_power_decomposition():
    assert prime_power_decomposition(2) == (2, 1)
    assert prime_power_decomposition(9) == (3, 2)
    assert prime_power_decomposition(8) == (2, 3)
    assert prime_power_decomposition(256) == (2, 8)
    with pytest.raises(ValueError):
        prime_power_decomposition(6)
    with pytest.raises(ValueError):
        prime_power_decomposition(12)
    with pytest.raises(ValueError):
        prime_power_decomposition(1)


def test_default_polynomials():
    assert GF(4).irreducible == (1, 1, 1)
    assert GF(8).irreducible == (1, 1, 0, 1)
    assert GF(9).irreducible == (1, 0, 1)
    assert GF(5).irreducible is None


def test_missing_polynomial_rejected():
    with pytest.raises(ValueError):
        GF(25)


def test_order_cap():
    with pytest.raises(ValueError):
        GF(512, tuple([1] + [0] * 8 + [1]))
    # A prime order this large is rejected before any trial division.
    with pytest.raises(ValueError, match="exceeds the supported cap"):
        GF(2**61 - 1)


def test_reducible_polynomials_rejected():
    with pytest.raises(ValueError):
        GF(4, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(ValueError):
        GF(8, (0, 0, 0, 1))  # x^3 has root 0
    # Reducible without roots: x^4 + x^2 + 1 = (x^2+x+1)^2 and
    # x^8 + x^2 + 1 = (x^4+x+1)^2.
    with pytest.raises(ValueError):
        GF(16, (1, 0, 1, 0, 1))
    with pytest.raises(ValueError):
        GF(256, (1, 0, 1, 0, 0, 0, 0, 0, 1))


def test_irreducibility_matches_product_oracle():
    """GF accepts exactly the irreducible monic moduli with p^m <= 128."""
    for p in (2, 3, 5, 7, 11):
        m = 2
        while p**m <= 128:
            for tail in itertools.product(range(p), repeat=m):
                poly = tail + (1,)
                try:
                    GF(p**m, poly)
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted != reducible_by_products(poly, p), poly
            m += 1


def test_non_monic_and_wrong_length_rejected():
    with pytest.raises(ValueError):
        GF(4, (1, 1, 2))
    with pytest.raises(ValueError):
        GF(4, (1, 1))


def test_polynomial_ignored_for_prime_fields():
    assert GF(5, (1, 1, 1)).irreducible is None


def test_field_equality_and_repr():
    assert GF(4) == GF(4, (1, 1, 1))
    assert GF(4) != GF(5)
    assert repr(GF(9)) == "GF(9)"
    assert "irreducible" in repr(GF(16, (1, 1, 0, 0, 1)))


# ---------------------------------------------------------------------
# frozen examples
# ---------------------------------------------------------------------
def test_add_examples():
    assert GF(2).add(1, 1) == 0
    assert GF(5).add(3, 4) == 2
    # In GF(4), codes 2 and 3 are x and x+1; their sum is 1.
    assert GF(4).add(2, 3) == 1


def test_mul_examples():
    gf4 = GF(4)
    for x in gf4.elements():
        assert gf4.mul(x, 0) == 0
    assert gf4.mul(2, 2) == 3  # x * x = x^2 = x + 1
    assert GF(5).mul(2, 3) == 1


def test_mul_matches_schoolbook_oracle():
    for q in (4, 5, 8, 9, 16, 27, 64, 81, 125, 256):
        f = make_field(q)
        for a in f.elements():
            for b in f.elements():
                assert f.mul(a, b) == mul_by_schoolbook(f, a, b)


def test_neg_and_inv_examples():
    assert GF(2).neg(1) == 1
    assert GF(5).inv(2) == 3
    assert GF(4).inv(2) == 3  # x * (x+1) = x^2 + x = 1
    gf9 = GF(9)
    assert gf9.mul(3, 6) == 1  # x * 2x = 2x^2 = 1 modulo x^2 + 1
    assert gf9.inv(3) == 6


def test_inv_matches_exhaustive_search():
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 27, 64, 81, 125, 256):
        f = make_field(q)
        for a in range(1, q):
            assert f.inv(a) == inverse_by_search(f, a)


def test_inv_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        GF(7).inv(0)


def test_pow():
    gf8 = GF(8)
    assert gf8.pow(2, 3) == 3  # x^3 = x + 1
    assert gf8.pow(2, 0) == 1
    assert gf8.pow(2, -1) == gf8.inv(2)


def test_enumerate():
    assert list(GF(2).elements()) == [0, 1]
    assert list(GF(3).elements()) == [0, 1, 2]
    assert list(GF(4).elements()) == [0, 1, 2, 3]


def test_out_of_range_codes_rejected():
    gf = GF(4)
    with pytest.raises(ValueError):
        gf.add(4, 0)
    with pytest.raises(ValueError):
        gf.mul(0, -1)


# ---------------------------------------------------------------------
# axioms, exhaustive for q <= 16
# ---------------------------------------------------------------------
@pytest.mark.parametrize("q", AXIOM_ORDERS)
def test_additive_structure(q):
    f = make_field(q)
    for a in f.elements():
        assert f.add(a, 0) == a
        assert f.add(a, f.neg(a)) == 0
        for b in f.elements():
            assert f.add(a, b) == f.add(b, a)


@pytest.mark.parametrize("q", AXIOM_ORDERS)
def test_multiplicative_structure(q):
    f = make_field(q)
    for a in f.elements():
        assert f.mul(a, 1) == a
        if a:
            assert f.mul(a, f.inv(a)) == 1
            assert f.pow(a, q - 1) == 1
        for b in f.elements():
            assert f.mul(a, b) == f.mul(b, a)


@pytest.mark.parametrize("q", AXIOM_ORDERS)
def test_associativity_and_distributivity(q):
    f = make_field(q)
    elems = list(f.elements())
    for a in elems:
        for b in elems:
            ab_add = f.add(a, b)
            ab_mul = f.mul(a, b)
            for c in elems:
                assert f.add(ab_add, c) == f.add(a, f.add(b, c))
                assert f.mul(ab_mul, c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


# ---------------------------------------------------------------------
# array arithmetic against the tables
# ---------------------------------------------------------------------
@pytest.mark.parametrize("q", AXIOM_ORDERS + [27, 64, 256])
def test_array_arithmetic_matches_tables(q):
    """`vadd` and `vsum` against `add_table`, which digit arithmetic
    builds independently of the XOR route, and `sub` undone by `add`."""
    f = make_field(q)
    codes = np.arange(q, dtype=np.int16)
    assert np.array_equal(f.vadd(codes[:, None], codes[None, :]), f.add_table)
    values = np.random.default_rng(q).integers(0, q, size=(6, 9), dtype=np.int16)
    for axis in (0, 1):
        lanes = np.moveaxis(values, axis, -1)
        folds = [functools.reduce(f.add, lane.tolist()) for lane in lanes]
        assert f.vsum(values, axis=axis).tolist() == folds
    for a in f.elements():
        for b in f.elements():
            assert f.add(f.sub(a, b), b) == a
