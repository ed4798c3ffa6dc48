"""Linear algebra over GF(q): canonical forms, kernels, sums, intersections."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eaqecc import GF, GfMatrix
from eaqecc.matrix import row_space_intersect

from conftest import FIVE_QUBIT_ROWS, FIVE_QUBIT_DUAL_ROWS
from oracles import row_space_sum, symplectic_form_matrix

# GF(9) is an odd-p extension field: its negation acts digit-wise.
# GF(16) adds by XOR over four bits.
FIELDS = {q: GF(q) for q in (2, 3, 4, 5, 7, 8, 9)}
FIELDS[16] = GF(16, (1, 1, 0, 0, 1))  # x^4 + x + 1


@st.composite
def gf_matrix(draw, max_rows=6, max_cols=12):
    q = draw(st.sampled_from(sorted(FIELDS)))
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(1, max_cols))
    data = draw(st.lists(
        st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))
    f = FIELDS[q]
    return GfMatrix(f, data) if rows else GfMatrix.zeros(f, 0, cols)


def rand_matrix(f, rows, cols, rng):
    data = [[rng.randrange(f.q) for _ in range(cols)] for _ in range(rows)]
    return GfMatrix(f, data) if rows else GfMatrix.zeros(f, 0, cols)


# ---------------------------------------------------------------------
# rref and rank
# ---------------------------------------------------------------------
def test_rref_identity(gf2):
    eye = GfMatrix.identity(gf2, 4)
    reduced, pivots = eye.rref()
    assert reduced == eye
    assert pivots == (0, 1, 2, 3)


def test_rref_zero_matrix(gf3):
    reduced, pivots = GfMatrix.zeros(gf3, 3, 4).rref()
    assert reduced.rows == 0 and reduced.cols == 4
    assert pivots == ()


def test_rref_five_qubit_basis(gf2):
    mat = GfMatrix(gf2, FIVE_QUBIT_ROWS)
    reduced, pivots = mat.rref()
    assert reduced.rows == 4
    assert len(pivots) == 4
    assert mat.rank() == 4


def test_rank_examples(gf3):
    assert GfMatrix.identity(gf3, 5).rank() == 5
    assert GfMatrix(gf3, [[1, 2, 0], [1, 2, 0]]).rank() == 1


def test_rref_scales_pivot_rows():
    gf5 = FIELDS[5]
    reduced, pivots = GfMatrix(gf5, [[2, 4], [0, 3]]).rref()
    assert pivots == (0, 1)
    assert reduced == GfMatrix.identity(gf5, 2)


def test_entry_validation(gf3):
    for data in ([[0, 3]], [[0, -1]],
                 [[1.7, 0]], [[True, False]], np.array([[1.0, 0.0]]),
                 [["1", "0"]], [[None, 0]],
                 [[70000, 0]], [[2**70, 0]],
                 np.array([[65536, 0]])):  # 65536 would wrap to 0 in int16
        with pytest.raises(ValueError):
            GfMatrix(gf3, data)


def test_integer_arrays_of_any_width_are_accepted(gf3):
    for dtype in (np.int8, np.uint8, np.int16, np.int64, np.uint64):
        mat = GfMatrix(gf3, np.array([[2, 0, 1]], dtype=dtype))
        assert mat.array.dtype == np.int16
        assert mat.array.tolist() == [[2, 0, 1]]


# ---------------------------------------------------------------------
# nullspace
# ---------------------------------------------------------------------
def test_nullspace_identity(gf2):
    assert GfMatrix.identity(gf2, 3).nullspace().rows == 0


def test_nullspace_parity(gf2):
    assert GfMatrix(gf2, [[1, 1]]).nullspace() == GfMatrix(gf2, [[1, 1]])


def test_nullspace_of_symplectic_product_matrix(gf2):
    # The kernel of (basis @ form) is the symplectic dual: 10 - 4 = 6 rows,
    # spanning the same space as the six known dual generators.
    basis = GfMatrix(gf2, FIVE_QUBIT_ROWS)
    form = symplectic_form_matrix(gf2, 5)
    kernel = (basis @ form).nullspace()
    assert kernel.rows == 6
    assert kernel == GfMatrix(gf2, FIVE_QUBIT_DUAL_ROWS).canonical()


# ---------------------------------------------------------------------
# sums and intersections
# ---------------------------------------------------------------------
def test_sum_with_empty_is_identity(gf2):
    a = GfMatrix(gf2, FIVE_QUBIT_ROWS)
    empty = GfMatrix.zeros(gf2, 0, 10)
    assert row_space_sum(a, empty) == a.canonical()
    assert row_space_sum(a, a) == a.canonical()


def test_sum_of_code_and_dual_is_dual(gf2):
    a = GfMatrix(gf2, FIVE_QUBIT_ROWS)
    dual = GfMatrix(gf2, FIVE_QUBIT_DUAL_ROWS)
    assert row_space_sum(a, dual) == dual.canonical()
    assert row_space_sum(a, dual).rows == 6


def test_intersect_trivial_cases(gf2):
    a = GfMatrix(gf2, FIVE_QUBIT_ROWS)
    empty = GfMatrix.zeros(gf2, 0, 10)
    assert row_space_intersect(a, a) == a.canonical()
    assert row_space_intersect(a, empty).rows == 0


def test_intersect_code_with_dual(gf2):
    a = GfMatrix(gf2, FIVE_QUBIT_ROWS)
    dual = GfMatrix(gf2, FIVE_QUBIT_DUAL_ROWS)
    assert row_space_intersect(a, dual) == a.canonical()


def test_dimension_mismatch_rejected(gf2, gf3):
    a = GfMatrix(gf2, [[1, 0]])
    with pytest.raises(ValueError):
        row_space_sum(a, GfMatrix(gf2, [[1, 0, 0]]))
    with pytest.raises(ValueError):
        row_space_intersect(a, GfMatrix(gf3, [[1, 0]]))


def test_matmul_shape_checks(gf2):
    a = GfMatrix(gf2, [[1, 0]])
    with pytest.raises(ValueError):
        a @ a


# ---------------------------------------------------------------------
# properties on random matrices
# ---------------------------------------------------------------------
@settings(deadline=None, max_examples=150, derandomize=True)
@given(gf_matrix())
def test_rref_idempotent(mat):
    reduced, _ = mat.rref()
    again, _ = reduced.rref()
    assert again == reduced


@settings(deadline=None, max_examples=150, derandomize=True)
@given(gf_matrix())
def test_rank_nullity(mat):
    kernel = mat.nullspace()
    assert mat.rank() + kernel.rows == mat.cols


@settings(deadline=None, max_examples=150, derandomize=True)
@given(gf_matrix())
def test_nullspace_annihilates(mat):
    kernel = mat.nullspace()
    if kernel.rows and mat.rows:
        assert (mat @ kernel.transpose()).is_zero()
    # The kernel comes back canonical: a fresh elimination keeps it as is.
    assert GfMatrix(mat.field, kernel.array).canonical() == kernel


def test_sum_intersect_dimension_formula():
    rng = random.Random(11)
    for _ in range(200):
        f = FIELDS[rng.choice((2, 3, 4, 5))]
        cols = rng.randrange(1, 13)
        u = rand_matrix(f, rng.randrange(0, 7), cols, rng).canonical()
        v = rand_matrix(f, rng.randrange(0, 7), cols, rng).canonical()
        total = row_space_sum(u, v)
        meet = row_space_intersect(u, v)
        assert total.rows + meet.rows == u.rows + v.rows
        # Every intersection row must lie in both inputs.
        if meet.rows:
            assert u.row_space_contains(meet.array).all()
            assert v.row_space_contains(meet.array).all()


def test_row_space_contains_single_and_batch(gf2):
    a = GfMatrix(gf2, [[1, 0, 1], [0, 1, 1]])
    assert a.row_space_contains([1, 1, 0])[0]
    mask = a.row_space_contains(np.array([[1, 0, 1], [1, 1, 1]]))
    assert list(mask) == [True, False]
