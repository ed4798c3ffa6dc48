"""Acceptance suite: one test per published guarantee, exact tolerances.

Each test prints a single `criterion N (<name>): PASS|FAIL` line (visible
with `pytest -s` or in captured output) and asserts the stated runtime
bound where one exists.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

from eaqecc import (FAIL, GF, LinearCode, VACUOUS, compare_applicability,
                    construct_eaqecc, random_self_orthogonal, verify_lemmas)
from eaqecc.cli import bundled_code_path, main, parse_code_file

from conftest import (FIVE_QUBIT_PUNCTURED_ROWS, FIVE_QUBIT_ROWS,
                      FIVE_QUBIT_SHORTENED_DUAL_ROWS)
from oracles import (min_hamming_weight_bruteforce,
                     min_weight_by_growing_support, oracle_cost, random_code)

SAMPLE = bundled_code_path()
FIELDS = {q: GF(q) for q in (2, 3, 4, 5)}


@contextmanager
def criterion(number, name, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None and elapsed >= budget_seconds:
        print(f"criterion {number} ({name}): FAIL (took {elapsed:.2f}s)")
        raise AssertionError(
            f"criterion {number} exceeded {budget_seconds}s: {elapsed:.2f}s")
    print(f"criterion {number} ({name}): PASS")


def self_orthogonal_suite(count, seed, min_weight=None):
    """Random self-orthogonal codes over q in {2,3,4,5}, n in 3..6, dim 1..n."""
    rng = random.Random(seed)
    suite = []
    while len(suite) < count:
        f = FIELDS[rng.choice((2, 3, 4, 5))]
        n = rng.randrange(3, 7)
        code = random_self_orthogonal(f, n, rng.randrange(1, n + 1),
                                      seed=rng.randrange(10**6))
        if min_weight is not None:
            w = code.min_symplectic_weight()
            if w is None or w < min_weight:
                continue
        suite.append(code)
    return suite


def test_criterion_1_golden_run(capsys):
    with criterion(1, "five-qubit golden run", budget_seconds=1.0):
        gf2 = GF(2)
        code = parse_code_file(SAMPLE.read_text())
        assert code.params().display() == "[[5,1,3;0]]_2"

        assert main(["params", str(SAMPLE)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "[[5,1,3;0]]_2"
        assert main(["construct", str(SAMPLE), "--positions", "3"]) == 0
        assert "[[4,1,3;1]]_2" in capsys.readouterr().out

        punctured, report = construct_eaqecc(code, [3])
        assert report.overall
        assert report.output_params.display() == "[[4,1,3;1]]_2"
        assert punctured == LinearCode(gf2, 4, FIVE_QUBIT_PUNCTURED_ROWS)
        from eaqecc import shorten
        assert (shorten(code.dual(), [3])
                == LinearCode(gf2, 4, FIVE_QUBIT_SHORTENED_DUAL_ROWS))


def test_criterion_2_construction_sweep():
    with criterion(2, "construction sweep over all 1- and 2-position sets",
                   budget_seconds=5.0):
        code = LinearCode(GF(2), 5, FIVE_QUBIT_ROWS)
        sets = ([(i,) for i in range(1, 6)]
                + list(itertools.combinations(range(1, 6), 2)))
        assert len(sets) == 15
        for positions in sets:
            _, report = construct_eaqecc(code, positions)
            failing = [c.name for c in report.checks if c.status == FAIL]
            assert report.overall and not failing, (positions, failing)
            assert len(report.checks) == 6


def test_criterion_3_randomized_lemma_suite():
    with criterion(3, "randomized single-position lemma suite",
                   budget_seconds=60.0):
        suite = self_orthogonal_suite(200, seed=303, min_weight=2)
        assert len(suite) >= 200
        for code in suite:
            for i in range(1, code.n + 1):
                report = verify_lemmas(code, [i])
                assert report.overall
                main_checks = report.checks[:4]
                assert all(c.status not in (FAIL, VACUOUS)
                           for c in main_checks), (code, i)


def test_criterion_4_duality_properties():
    with criterion(4, "dual involution and dimension identity"):
        rng = random.Random(404)
        for _ in range(500):
            f = FIELDS[rng.choice((2, 3, 4, 5))]
            n = rng.randrange(3, 7)
            code = random_code(f, n, rng.randrange(1, n + 1), rng)
            dual = code.dual()
            assert code.dim + dual.dim == 2 * n
            assert dual.dual() == code


def test_criterion_5_weight_oracle_agreement():
    with criterion(5, "minimum-weight oracle agreement"):
        rng = random.Random(505)
        checked = 0
        while checked < 100:
            q = rng.choice((2, 3, 4, 5))
            f = FIELDS[q]
            n = rng.randrange(3, 7)
            max_dim = min(2 * n, int(16 // math.log2(q)))
            code = random_code(f, n, rng.randrange(1, max_dim + 1), rng)
            if code.dim == 0 or q ** code.dim > 1 << 16:
                continue
            w = code.min_symplectic_weight()
            if oracle_cost(n, q, w) > 1 << 21:
                continue  # keep the oracle side tractable
            assert min_weight_by_growing_support(code, up_to_weight=w) == w
            checked += 1
        assert checked >= 100


def test_criterion_6_applicability_dominance():
    with criterion(6, "symplectic criterion dominates the Hamming one"):
        from eaqecc import DEFAULT_CAP
        suite = [code for code in self_orthogonal_suite(150, seed=606)
                 if code.field.q ** code.dual().dim <= DEFAULT_CAP]
        assert len(suite) >= 100
        for code in suite:
            sympl_max, hamming_max = compare_applicability(code)
            assert sympl_max >= hamming_max
        # Strict inequality exhibited on the five-qubit code, with the
        # Hamming side recomputed by the brute-force oracle.
        code = LinearCode(GF(2), 5, FIVE_QUBIT_ROWS)
        w_h = min_hamming_weight_bruteforce(code.dual())
        oracle_hamming_max = (w_h + 1) // 2 - 1
        sympl_max, hamming_max = compare_applicability(code)
        assert hamming_max == oracle_hamming_max
        assert sympl_max > oracle_hamming_max


def test_criterion_7_field_axioms():
    with criterion(7, "exhaustive field axioms", budget_seconds=10.0):
        for q in (2, 3, 4, 5, 7, 8, 9):
            f = GF(q)
            elems = list(f.elements())
            for a in elems:
                assert f.add(a, f.neg(a)) == 0
                if a:
                    assert f.mul(a, f.inv(a)) == 1
                    assert f.pow(a, q - 1) == 1
                for b in elems:
                    assert f.add(a, b) == f.add(b, a)
                    assert f.mul(a, b) == f.mul(b, a)
                    for c in elems:
                        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                        assert (f.mul(a, f.add(b, c))
                                == f.add(f.mul(a, b), f.mul(a, c)))
