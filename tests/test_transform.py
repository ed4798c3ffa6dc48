"""Puncture/shorten behavior, the construction, lemma checks, and search."""

import itertools
import math
import random

import numpy as np
import pytest

from eaqecc import transform
from eaqecc import (FAIL, GF, GfMatrix, LinearCode, PASS, PositionSet, VACUOUS,
                    compare_applicability, construct_eaqecc, puncture,
                    random_self_orthogonal, search_positions, shorten,
                    symplectic_weight, verify_lemmas)

from conftest import (FIVE_QUBIT_DUAL_ROWS, FIVE_QUBIT_PUNCTURED_ROWS,
                      FIVE_QUBIT_SHORTENED_DUAL_ROWS, vec)
from oracles import _codewords, min_hamming_weight_bruteforce

FIELDS = {q: GF(q) for q in (2, 3, 4, 5, 7, 8, 9)}


def codewords(code):
    """All codewords, combined row by row in plain Python."""
    f = code.field
    rows = [list(map(int, r)) for r in code.basis.array]
    width = 2 * code.n
    for coeffs in itertools.product(range(f.q), repeat=len(rows)):
        word = [0] * width
        for coef, row in zip(coeffs, rows):
            if coef:
                for j in range(width):
                    word[j] = f.add(word[j], f.mul(coef, row[j]))
        yield word


def random_self_orthogonal_pool(count, seed, min_weight=None):
    """Deterministic pool of random self-orthogonal codes."""
    rng = random.Random(seed)
    pool = []
    while len(pool) < count:
        f = FIELDS[rng.choice((2, 3, 4, 5))]
        n = rng.randrange(3, 7)
        code = random_self_orthogonal(f, n, rng.randrange(1, n + 1),
                                      seed=rng.randrange(10**6))
        if min_weight is not None:
            w = code.min_symplectic_weight()
            if w is None or w < min_weight:
                continue
        pool.append(code)
    return pool


# ---------------------------------------------------------------------
# PositionSet
# ---------------------------------------------------------------------
def test_position_set_basics():
    s = PositionSet([3, 1])
    assert s.positions == (1, 3)
    assert s.ell == 2
    assert s.columns(5) == [0, 2, 5, 7]
    assert str(s) == "1,3"
    assert PositionSet.parse("1, 3") == s


def test_position_set_rejects_bad_input():
    with pytest.raises(ValueError):
        PositionSet([0, 2])
    with pytest.raises(ValueError):
        PositionSet([2, 2])
    with pytest.raises(ValueError):
        PositionSet.parse("1,x")
    with pytest.raises(ValueError):
        PositionSet([6]).validate_for(5)


# ---------------------------------------------------------------------
# puncture
# ---------------------------------------------------------------------
def test_puncture_empty_set_is_identity(five_qubit):
    assert puncture(five_qubit, PositionSet([])) == five_qubit


def test_puncture_five_qubit_at_three(five_qubit, gf2):
    expected = LinearCode(gf2, 4, FIVE_QUBIT_PUNCTURED_ROWS)
    assert puncture(five_qubit, [3]) == expected


def test_puncture_zero_code(gf3):
    out = puncture(LinearCode(gf3, 4), [2, 4])
    assert out == LinearCode(gf3, 2)


def test_puncture_out_of_range(five_qubit):
    with pytest.raises(ValueError):
        puncture(five_qubit, [6])


def test_puncture_commutes_with_iteration():
    rng = random.Random(23)
    for _ in range(40):
        f = FIELDS[rng.choice((2, 3, 4, 5))]
        n = rng.randrange(2, 7)
        rows = [[rng.randrange(f.q) for _ in range(2 * n)]
                for _ in range(rng.randrange(1, n + 1))]
        code = LinearCode(f, n, rows)
        i, j = rng.sample(range(1, n + 1), 2)
        j_after = j - 1 if j > i else j
        once = puncture(puncture(code, [i]), [j_after])
        assert once == puncture(code, sorted([i, j]))


# ---------------------------------------------------------------------
# shorten
# ---------------------------------------------------------------------
def test_shorten_empty_set_is_identity(five_qubit):
    assert shorten(five_qubit, PositionSet([])) == five_qubit


def test_shorten_five_qubit_dual_at_three(five_qubit, gf2):
    expected = LinearCode(gf2, 4, FIVE_QUBIT_SHORTENED_DUAL_ROWS)
    assert shorten(five_qubit.dual(), [3]) == expected


def test_shorten_full_space(gf3):
    full = LinearCode(gf3, 3, np.eye(6, dtype=int))
    assert shorten(full, [2]) == LinearCode(gf3, 2, np.eye(4, dtype=int))


def test_shorten_keeps_only_vanishing_words():
    # Extension fields and odd p exercise the inverse and negation factors
    # of the column clear; sparse rows leave some selected columns zero.
    rng = random.Random(37)
    for _ in range(120):
        f = FIELDS[rng.choice(sorted(FIELDS))]
        n = rng.randrange(1, 5)
        max_rows = min(2 * n, int(math.log(4096, f.q)))
        rows = [[rng.randrange(f.q) if rng.random() < 0.7 else 0
                 for _ in range(2 * n)]
                for _ in range(rng.randrange(1, max_rows + 1))]
        code = LinearCode(f, n, rows)
        positions = rng.sample(range(1, n + 1), rng.randrange(0, n + 1))
        cols = PositionSet(positions).columns(n)
        keep = [j for j in range(2 * n) if j not in cols]
        shortened = shorten(code, positions)
        vanishing = {tuple(w[j] for j in keep) for w in _codewords(code)
                     if not any(w[j] for j in cols)}
        assert set(_codewords(shortened)) == vanishing
        assert GfMatrix(f, shortened.basis.array).canonical() == shortened.basis


def test_shorten_preserves_preimage_weights(five_qubit, gf2):
    # Re-embedding zeros at the deleted pair recovers a dual codeword of
    # identical symplectic weight, so the shortened minimum cannot drop.
    dual = five_qubit.dual()
    shortened = shorten(dual, [3])
    for word in codewords(shortened):
        embedded = word[:2] + [0] + word[2:6] + [0] + word[6:]
        assert dual.contains(embedded)
        assert symplectic_weight(embedded) == symplectic_weight(word)
    assert (shortened.min_symplectic_weight()
            >= dual.min_symplectic_weight())


# ---------------------------------------------------------------------
# duality exchange and intersection identity on random codes
# ---------------------------------------------------------------------
def test_duality_exchange_random_sweep():
    rng = random.Random(41)
    for code in random_self_orthogonal_pool(40, seed=41, min_weight=2):
        w = code.min_symplectic_weight()
        ell = rng.randrange(1, w)
        positions = PositionSet(rng.sample(range(1, code.n + 1), ell))
        assert (puncture(code, positions).dual()
                == shorten(code.dual(), positions))


def test_intersection_identity_random_sweep():
    rng = random.Random(43)
    for code in random_self_orthogonal_pool(30, seed=43, min_weight=2):
        d = code.dual().min_symplectic_weight()
        if d is None or d < 2:
            continue
        ell = rng.randrange(1, d)
        positions = PositionSet(rng.sample(range(1, code.n + 1), ell))
        punctured = puncture(code, positions)
        from eaqecc.matrix import row_space_intersect
        meet = LinearCode(code.field, punctured.n,
                          row_space_intersect(punctured.basis,
                                              punctured.dual().basis))
        assert meet == shorten(code, positions)


# ---------------------------------------------------------------------
# construct_eaqecc
# ---------------------------------------------------------------------
def test_construct_five_qubit(five_qubit, gf2):
    code, report = construct_eaqecc(five_qubit, [3])
    assert code == LinearCode(gf2, 4, FIVE_QUBIT_PUNCTURED_ROWS)
    assert report.overall
    assert len(report.checks) == 6
    assert all(c.status == PASS for c in report.checks)
    assert report.output_params.display() == "[[4,1,3;1]]_2"
    assert report.input_params.display() == "[[5,1,3;0]]_2"


def test_construct_rejects_l_equal_d(five_qubit):
    with pytest.raises(ValueError, match=r"1 <= l <= d-1"):
        construct_eaqecc(five_qubit, [1, 2, 3])


def test_construct_rejects_empty_positions(five_qubit):
    with pytest.raises(ValueError, match=r"1 <= l <= d-1"):
        construct_eaqecc(five_qubit, [])


def test_construct_rejects_non_self_orthogonal(gf2):
    hyperbolic = LinearCode(gf2, 2, [[1, 0, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(ValueError, match="self-orthogonal"):
        construct_eaqecc(hyperbolic, [1])


def test_construct_single_positions_one_and_five(five_qubit):
    for pos in (1, 5):
        _, report = construct_eaqecc(five_qubit, [pos])
        p = report.output_params
        assert (p.n, p.k, p.c) == (4, 1, 1)
        assert p.pure_d >= 3
        assert report.overall


def _distance_check(report):
    return {c.name: c for c in report.checks}["dual_min_weight_at_least_d"]


def test_construct_distance_clause_vacuous_when_dual_is_zero():
    # [[4,0,3;0]]_9 punctured at two positions fills F_9^4: its dual is
    # {0}, so pure_d is None and the clause holds over an empty set.
    code = random_self_orthogonal(GF(9), 4, 4, seed=0)
    punctured, report = construct_eaqecc(code, [1, 2])
    assert punctured.dual().dim == 0
    check = _distance_check(report)
    assert (check.expected, check.actual, check.status) == (">= 3", "None", PASS)
    assert report.overall


def test_construct_distance_clause_fails_below_d(five_qubit, gf2, monkeypatch):
    # A wrong puncture whose dual holds the weight-1 word (1000|0000).
    weak = LinearCode(gf2, 4, [vec("1000|0000")])
    monkeypatch.setattr(transform, "puncture", lambda code, positions: weak)
    _, report = construct_eaqecc(five_qubit, [3])
    check = _distance_check(report)
    assert (check.expected, check.actual, check.status) == (">= 3", "1", FAIL)
    assert not report.overall


def test_construct_parameter_preservation_random():
    rng = random.Random(47)
    for code in random_self_orthogonal_pool(25, seed=47, min_weight=2):
        d = code.dual().min_symplectic_weight()
        if d is None or d < 2:
            continue
        ell = rng.randrange(1, d)
        positions = PositionSet(rng.sample(range(1, code.n + 1), ell))
        _, report = construct_eaqecc(code, positions)
        assert report.overall, [c for c in report.checks if c.status == FAIL]
        out, inp = report.output_params, report.input_params
        assert out.k == inp.k
        assert out.c == ell
        assert out.n == inp.n - ell


# ---------------------------------------------------------------------
# verify_lemmas
# ---------------------------------------------------------------------
def test_verify_lemmas_five_qubit(five_qubit):
    report = verify_lemmas(five_qubit, [3])
    assert report.overall
    by_name = {c.name: c for c in report.checks}
    for name in ("puncture_preserves_dim", "dual_matrix_column_condition",
                 "shorten_dual_drops_dim_by_two",
                 "shortened_dual_is_dual_of_punctured"):
        assert by_name[name].status == PASS
    assert by_name["column_condition_implies_weight_one"].status == VACUOUS


def test_verify_lemmas_weight_one_code(gf2):
    # A single weight-1 generator: the main checks are vacuous, and the
    # converse direction fires because the column condition does hold.
    code = LinearCode(gf2, 3, [vec("100|000")])
    assert code.min_symplectic_weight() == 1
    report = verify_lemmas(code, [1])
    by_name = {c.name: c for c in report.checks}
    for name in ("puncture_preserves_dim", "dual_matrix_column_condition",
                 "shorten_dual_drops_dim_by_two",
                 "shortened_dual_is_dual_of_punctured"):
        assert by_name[name].status == VACUOUS
        assert "VACUOUS" in by_name[name].status.upper()
    witness = by_name["column_condition_implies_weight_one"]
    assert witness.status == PASS
    assert report.overall  # vacuous checks do not fail the report


def test_verify_lemmas_random_sweep():
    for code in random_self_orthogonal_pool(25, seed=53, min_weight=2):
        for i in range(1, code.n + 1):
            report = verify_lemmas(code, [i])
            assert report.overall
            assert all(c.status == PASS for c in report.checks[:4])


# ---------------------------------------------------------------------
# compare_applicability
# ---------------------------------------------------------------------
def test_compare_applicability_five_qubit(five_qubit, gf2):
    sympl_max, hamming_max = compare_applicability(five_qubit)
    assert sympl_max == 2
    # The Hamming bound must come from a genuine enumeration of all 64
    # dual codewords, not an assumed value.
    w_h = min_hamming_weight_bruteforce(LinearCode(gf2, 5, FIVE_QUBIT_DUAL_ROWS))
    assert hamming_max == (w_h + 1) // 2 - 1
    assert hamming_max == 1
    assert sympl_max > hamming_max


def test_compare_applicability_dominance_random():
    for code in random_self_orthogonal_pool(30, seed=59):
        if code.dual().dim == 0:
            continue
        sympl_max, hamming_max = compare_applicability(code)
        assert sympl_max >= hamming_max


def test_compare_applicability_rejects_non_self_orthogonal(gf2):
    hyperbolic = LinearCode(gf2, 1, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        compare_applicability(hyperbolic)


# ---------------------------------------------------------------------
# search_positions
# ---------------------------------------------------------------------
def test_search_single_position(five_qubit):
    results = search_positions(five_qubit, 1)
    assert len(results) == 5
    assert all(p.display() == "[[4,1,3;1]]_2" for _, p in results)
    assert [s.positions for s, _ in results] == [(i,) for i in range(1, 6)]


def test_search_two_positions(five_qubit):
    results = search_positions(five_qubit, 2)
    assert len(results) == 10
    for pset, params in results:
        assert pset.ell == 2
        assert (params.c, params.k) == (2, 1)
        assert params.pure_d >= 3
    # Deterministic order: descending dual weight, then ascending sets.
    keys = [(-(p.pure_d or 0), s.positions) for s, p in results]
    assert keys == sorted(keys)


def test_search_matches_full_construction():
    """Each search result equals a full construction, with every check
    passing, on a fresh copy of the code that has no memoized minima."""
    rng = random.Random(61)
    checked = 0
    for code in random_self_orthogonal_pool(40, seed=61, min_weight=2):
        dual = code.dual()
        if code.field.q == 5 or code.field.q ** dual.dim > 1 << 12:
            continue
        d = dual.min_symplectic_weight()
        if d is None or d < 2:
            continue
        ell = rng.randrange(1, d)
        for pset, params in search_positions(code, ell):
            fresh = LinearCode(code.field, code.n, code.basis)
            _, report = construct_eaqecc(fresh, pset)
            assert report.overall, [c for c in report.checks if c.status == FAIL]
            assert params == report.output_params
        checked += 1
    assert checked >= 10


def test_search_rejects_l_zero(five_qubit):
    with pytest.raises(ValueError, match=r"1 <= l <= d-1"):
        search_positions(five_qubit, 0)


def test_search_limit(five_qubit):
    results = search_positions(five_qubit, 1, limit=2)
    assert [s.positions for s, _ in results] == [(1,), (2,)]
