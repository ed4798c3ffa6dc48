"""Code file parsing, serialization, report rendering, and the CLI driver."""

import io
import json
import os
import random
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import eaqecc
from eaqecc import (FAIL, PASS, VACUOUS, CapExceededError, CheckResult,
                    CodeFileError, GF, LinearCode, PositionSet, TheoremReport,
                    construct_eaqecc, random_self_orthogonal, verify_lemmas)
from eaqecc.cli import (bundled_code_path, code_to_dict, emit_report, main,
                        parse_code_file, serialize_code)
from eaqecc import transform

from conftest import vec
from oracles import random_code

SAMPLE = bundled_code_path()


# ---------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------
def test_parse_bundled_sample():
    code = parse_code_file(SAMPLE.read_text())
    assert code.n == 5
    assert code.dim == 4
    assert code.field.q == 2


def test_parse_empty_rows_gives_zero_code():
    code = parse_code_file("q 3\nn 4\n")
    assert code.dim == 0
    assert code.n == 4


def test_parse_comments_and_blank_lines():
    text = "# header\n\nq 2\n# mid\nn 1\n1 | 0  # inline\n"
    code = parse_code_file(text)
    assert code.dim == 1


def test_parse_extension_field_with_poly():
    text = "q 4\npoly 1 1 1\nn 2\n2 0 | 0 3\n"
    code = parse_code_file(text)
    assert code.field.irreducible == (1, 1, 1)


def test_parse_wrong_row_length():
    text = "q 2\nn 5\n1 0 0 1 | 0 1 1 0 0\n"
    with pytest.raises(CodeFileError) as err:
        parse_code_file(text)
    assert err.value.line == 3


def test_parse_entry_too_large():
    with pytest.raises(CodeFileError) as err:
        parse_code_file("q 2\nn 2\n0 2 | 0 0\n")
    assert err.value.line == 3
    assert err.value.column == 3


def test_parse_non_prime_power_order():
    with pytest.raises(CodeFileError) as err:
        parse_code_file("q 6\nn 2\n")
    assert err.value.line == 1


@pytest.mark.parametrize("text", ["q 4\npoly 1 0 1\nn 2\n",
                                  "q 2\npoly 7 7 7 7\nn 1\n1 | 0\n"],
                         ids=["reducible", "prime-field"])
def test_parse_bad_polynomial(text):
    with pytest.raises(CodeFileError) as err:
        parse_code_file(text)
    assert err.value.line == 2


def test_parse_missing_poly_for_large_extension():
    with pytest.raises(CodeFileError) as err:
        parse_code_file("q 16\nn 2\n")
    assert err.value.line == 1


def test_parse_unknown_header_rejected():
    with pytest.raises(CodeFileError):
        parse_code_file("q 2\nrows 4\nn 2\n")
    with pytest.raises(CodeFileError):
        parse_code_file("length 5\n")


def test_parse_missing_pieces():
    with pytest.raises(CodeFileError):
        parse_code_file("")
    with pytest.raises(CodeFileError):
        parse_code_file("q 2\n")
    with pytest.raises(CodeFileError):
        parse_code_file("q 2\nn 0\n")


def test_parse_row_without_bar():
    with pytest.raises(CodeFileError) as err:
        parse_code_file("q 2\nn 2\n1 0 0 0\n")
    assert err.value.line == 3


def test_round_trip_random_codes():
    rng = random.Random(61)
    fields = [GF(2), GF(3), GF(4), GF(5), GF(9)]
    for _ in range(40):
        f = rng.choice(fields)
        n = rng.randrange(1, 6)
        code = random_code(f, n, rng.randrange(0, n + 2), rng)
        assert parse_code_file(serialize_code(code)) == code


# ---------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------
def test_emit_report_text(five_qubit):
    _, report = construct_eaqecc(five_qubit, [3])
    text = emit_report(report, "text")
    assert "[[4,1,3;1]]_2" in text
    pass_lines = [l for l in text.splitlines() if l.startswith("PASS ")]
    assert len(pass_lines) == 6
    assert text.endswith("verdict: PASS\n")


def test_emit_report_vacuous(gf2):
    code = LinearCode(gf2, 3, [vec("100|000")])
    text = emit_report(verify_lemmas(code, [1]), "text")
    assert "VACUOUS" in text


PARAMS_KEYS = ["q", "n", "k", "d", "c", "pure_d", "is_stabilizer_qecc", "display"]
CHECK_KEYS = ["name", "expected", "actual", "status"]


def _assert_params_json(data, params):
    assert list(data) == PARAMS_KEYS
    assert [data[key] for key in PARAMS_KEYS[:-1]] == [
        params.q, params.n, params.k, params.d, params.c, params.pure_d,
        params.is_stabilizer_qecc]
    assert data["display"] == params.display()


def test_report_json_content(five_qubit):
    _, report = construct_eaqecc(five_qubit, [3])
    lemma_report = verify_lemmas(five_qubit, [2])
    for rep, positions in ((report, [3]), (lemma_report, [2])):
        data = json.loads(emit_report(rep, "json"))
        assert list(data) == ["positions", "input_params", "output_params",
                              "checks", "overall"]
        assert data["positions"] == positions
        assert data["overall"] is True
        assert [list(c) for c in data["checks"]] == [CHECK_KEYS] * len(rep.checks)
        assert [[c[key] for key in CHECK_KEYS] for c in data["checks"]] == [
            [c.name, c.expected, c.actual, c.status] for c in rep.checks]
        _assert_params_json(data["input_params"], rep.input_params)
        _assert_params_json(data["output_params"], rep.output_params)
    assert json.loads(emit_report(report, "json"))["output_params"] == {
        "q": 2, "n": 4, "k": 1, "d": 3, "c": 1, "pure_d": 3,
        "is_stabilizer_qecc": False, "display": "[[4,1,3;1]]_2"}
    lemma_out = json.loads(emit_report(lemma_report, "json"))["output_params"]
    assert (lemma_out["d"], lemma_out["display"]) == (None, "[[4,1,?;1]]_2")


def _report(*statuses):
    checks = [CheckResult(f"check{i}", "e", "a", s) for i, s in enumerate(statuses)]
    params = LinearCode(GF(2), 1).structural_params()
    return TheoremReport(positions=PositionSet([1]), input_params=params,
                         output_params=None, checks=checks)


def test_failing_check_fails_the_verdict():
    report = _report(PASS, FAIL, VACUOUS)
    assert report.overall is False
    assert emit_report(report, "text").endswith("verdict: FAIL\n")
    assert json.loads(emit_report(report, "json"))["overall"] is False


def test_vacuous_checks_alone_pass():
    assert _report(VACUOUS, VACUOUS).overall is True


LEMMA_NAMES = ["puncture_preserves_dim", "dual_matrix_column_condition",
               "shorten_dual_drops_dim_by_two",
               "shortened_dual_is_dual_of_punctured",
               "column_condition_implies_weight_one"]


def test_lemma_report_fails_at_one_of_several_positions(five_qubit, monkeypatch,
                                                        capsys):
    real_shorten = transform.shorten

    def zero_code_at_two(code, positions):
        shortened = real_shorten(code, positions)
        if list(positions) == [2]:
            return LinearCode(shortened.field, shortened.n)
        return shortened

    monkeypatch.setattr(transform, "shorten", zero_code_at_two)
    report = verify_lemmas(five_qubit, [3, 2, 1])
    assert [c.name for c in report.checks] == [
        f"{name}[i={i}]" for i in (1, 2, 3) for name in LEMMA_NAMES]
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["shorten_dual_drops_dim_by_two[i=2]"] == FAIL
    assert statuses["shorten_dual_drops_dim_by_two[i=1]"] == PASS
    assert statuses["shorten_dual_drops_dim_by_two[i=3]"] == PASS
    assert report.output_params is None
    assert report.overall is False
    assert main(["verify-lemmas", str(SAMPLE), "--positions", "1,2,3"]) == 1
    out = capsys.readouterr().out
    assert "FAIL shorten_dual_drops_dim_by_two[i=2]" in out
    assert out.endswith("verdict: FAIL\n")
    with pytest.raises(ValueError):
        verify_lemmas(five_qubit, [])


def test_cli_construct_failing_report_exits_1(capsys, monkeypatch):
    code = parse_code_file(SAMPLE.read_text())
    monkeypatch.setattr(eaqecc.cli, "construct_eaqecc",
                        lambda *args, **kwargs: (code, _report(PASS, FAIL)))
    assert main(["construct", str(SAMPLE), "--positions", "3"]) == 1
    assert capsys.readouterr().out.endswith("verdict: FAIL\n")


# ---------------------------------------------------------------------
# CLI driver
# ---------------------------------------------------------------------
def test_cli_params(capsys):
    assert main(["params", str(SAMPLE)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "[[5,1,3;0]]_2"
    assert "pure_d = 3" in out


def test_cli_params_json(capsys):
    assert main(["params", str(SAMPLE), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["display"] == "[[5,1,3;0]]_2"
    assert data["k"] == 1


def test_cli_dual_output_is_parseable(capsys):
    assert main(["dual", str(SAMPLE)]) == 0
    out = capsys.readouterr().out
    dual = parse_code_file(out)
    assert dual.dim == 6
    code = parse_code_file(SAMPLE.read_text())
    assert dual == code.dual()


def test_cli_construct_vacuous_distance_clause_passes(tmp_path, capsys):
    path = tmp_path / "selfdual9.txt"
    path.write_text(serialize_code(random_self_orthogonal(GF(9), 4, 4, seed=0)))
    assert main(["construct", str(path), "--positions", "1,2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "output: [[2,0,?;2]]_9" in lines
    assert ("PASS dual_min_weight_at_least_d: expected >= 3, actual None"
            in lines)
    assert lines[-1] == "verdict: PASS"


def test_cli_construct(capsys):
    assert main(["construct", str(SAMPLE), "--positions", "3"]) == 0
    out = capsys.readouterr().out
    assert "[[4,1,3;1]]_2" in out
    assert out.count("PASS") >= 6
    # The leading block is the punctured code in file format.
    head = out.split("\n\n")[0]
    assert parse_code_file(head).n == 4


def test_cli_construct_rejects_l_equal_d(capsys):
    assert main(["construct", str(SAMPLE), "--positions", "1,2,3"]) == 2
    err = capsys.readouterr().err
    assert "l must satisfy 1 <= l <= d-1" in err


def test_cli_puncture_and_shorten(capsys):
    assert main(["puncture", str(SAMPLE), "--positions", "3"]) == 0
    punctured = parse_code_file(capsys.readouterr().out)
    assert punctured.n == 4 and punctured.dim == 4

    assert main(["shorten", str(SAMPLE), "--positions", "3"]) == 0
    shortened = parse_code_file(capsys.readouterr().out)
    assert shortened.n == 4 and shortened.dim == 2


def test_cli_verify_lemmas_all_positions(capsys):
    assert main(["verify-lemmas", str(SAMPLE)]) == 0
    out = capsys.readouterr().out
    assert "verdict: PASS" in out
    assert "[i=5]" in out


@pytest.mark.parametrize("flag", [["--positions", ","], ["--positions="]],
                         ids=["comma", "empty"])
@pytest.mark.parametrize("command", ["puncture", "shorten", "construct",
                                     "verify-lemmas"])
def test_cli_empty_positions_rejected(capsys, command, flag):
    assert main([command, str(SAMPLE), *flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --positions needs at least one position\n"


def test_cli_verify_lemmas_json_single_object(capsys):
    assert main(["verify-lemmas", str(SAMPLE), "--positions", "3",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["overall"] is True
    assert data["positions"] == [3]


def test_cli_search(capsys):
    assert main(["search", str(SAMPLE), "--ell", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    assert all("[[4,1,3;1]]_2" in line for line in lines)


def test_cli_compare_remark(capsys):
    assert main(["compare-remark", str(SAMPLE)]) == 0
    out = capsys.readouterr().out
    assert "symplectic_max_l = 2" in out
    assert "hamming_max_l = 1" in out


def test_cli_cap_exceeded_exit_code(capsys):
    assert main(["params", str(SAMPLE), "--cap", "10"]) == 3
    assert "cap" in capsys.readouterr().err


def test_cli_negative_limit_rejected(capsys):
    assert main(["search", str(SAMPLE), "--ell", "1", "--limit", "-1"]) == 2
    assert "--limit" in capsys.readouterr().err


def test_cli_nonpositive_cap_rejected(capsys):
    assert main(["params", str(SAMPLE), "--cap", "-5"]) == 2
    assert "--cap" in capsys.readouterr().err
    assert main(["params", str(SAMPLE), "--cap", "0"]) == 2


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("q 6\nn 2\n")
    assert main(["params", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def _run_cli(args, **kwargs) -> subprocess.CompletedProcess:
    """`python -m eaqecc` in a fresh process, on this checkout's package."""
    src = str(Path(eaqecc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "eaqecc", *args],
                          capture_output=True, text=True, timeout=30, env=env,
                          **kwargs)


def test_cli_huge_order_rejected_before_factoring(tmp_path):
    # 2^61 - 1 is prime: factoring it by trial division would never end.
    huge = tmp_path / "huge.txt"
    huge.write_text("q 2305843009213693951\nn 2\n")
    proc = _run_cli(["params", str(huge)])
    assert proc.returncode == 2
    assert "line 1" in proc.stderr
    assert "exceeds the supported cap" in proc.stderr


def _limit_address_space():
    limit = 3 << 29  # 1.5 GiB
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _unit_rows(n: int) -> str:
    """Rows e_1 = (1 0..0 | 0..0) and f_1 = (0..0 | 1 0..0): product 1."""
    unit = " ".join(["1"] + ["0"] * (n - 1))
    zeros = " ".join(["0"] * n)
    return f"{unit} | {zeros}\n{zeros} | {unit}\n"


# (code file, cap error, precondition error or None).  The zero code with
# n = 20000 has a dual of 2^40000 words, whose 40000 x 40000 basis alone
# would take 3 GiB; with q = 3, n = 10^9 the dual has 3^(2 10^9) words, a
# count the cap refuses without building it.  e_1, f_1 are not
# self-orthogonal: every command but params refuses them before any cap.
REFUSED_DUALS = [
    ("q 2\nn 20000\n", "at least 2^40000 codewords", None),
    ("q 3\nn 1000000000\n", "at least 2^2000000000 codewords", None),
    ("q 2\nn 20000\n" + _unit_rows(20000), "at least 2^39998 codewords",
     "not self-orthogonal"),
]


@pytest.mark.parametrize("args", [["params"], ["compare-remark"],
                                  ["construct", "--positions", "1"],
                                  ["search", "--ell", "1"]])
def test_cli_dual_refused_by_cap_before_it_is_built(tmp_path, args):
    path = tmp_path / "code.txt"
    for text, cap_error, precondition in REFUSED_DUALS:
        path.write_text(text)
        proc = _run_cli([args[0], str(path), *args[1:]],
                        preexec_fn=_limit_address_space)
        if precondition is None or args[0] == "params":
            assert proc.returncode == 3, proc.stderr
            assert cap_error in proc.stderr
            assert "raise the cap" in proc.stderr
        else:
            assert proc.returncode == 2, proc.stderr
            assert precondition in proc.stderr
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("args", [["dual"], ["verify-lemmas", "--positions", "1"]])
def test_cli_out_of_memory_exit_code(tmp_path, args):
    # Neither command enumerates the dual, so no cap refuses its
    # 40000 x 40000 basis; the allocation fails under the 1.5 GiB limit.
    zero = tmp_path / "zero.txt"
    zero.write_text("q 2\nn 20000\n")
    proc = _run_cli([args[0], str(zero), *args[1:]],
                    preexec_fn=_limit_address_space)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: out of memory: ")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


def test_cap_error_keeps_the_exact_count():
    # Python will not print an integer of 12042 digits by default.
    err = CapExceededError(2 ** 40000, 10)
    assert err.required == 2 ** 40000
    assert "at least 2^40000 codewords" in str(err)
    assert "needs 1024 codewords" in str(CapExceededError(1024, 10))


def test_cli_missing_file(capsys):
    assert main(["params", "no/such/file.txt"]) == 2


def test_cli_deterministic_output(capsys):
    main(["construct", str(SAMPLE), "--positions", "3", "--format", "json"])
    first = capsys.readouterr().out
    main(["construct", str(SAMPLE), "--positions", "3", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_code_to_dict_round_trip_fields(gf4):
    code = LinearCode(gf4, 2, [[1, 0, 2, 0], [0, 1, 0, 3]])
    data = code_to_dict(code)
    assert data["poly"] == [1, 1, 1]
    assert data["n"] == 2


# ---------------------------------------------------------------------
# the exit-code contract over generated input
# ---------------------------------------------------------------------
VALID_POLY = {4: (1, 1, 1), 9: (1, 0, 1), 16: (1, 1, 0, 0, 1)}


@st.composite
def code_files(draw):
    """Code-file text from a small grammar: a q line, an optional poly
    line, an n line and rows that mix entries, bars and comments.  Half of
    the files are well formed, the others have one flaw in a chosen part;
    two thirds of the well-formed rows come from a self-orthogonal code.
    n <= 4 keeps every table and block to a few KB."""
    flaw = draw(st.sampled_from([None, None, None, None, "q", "poly", "n", "row"]))
    q = draw(st.sampled_from([1, 6, 257] if flaw == "q" else [2, 3, 4, 9, 16]))
    lines = [f"q {q}"]
    if flaw == "poly":
        lines.append("poly " + draw(st.sampled_from(["1 1 1", "1 0 1",
                                                     "7 7 7 7", "x"])))
    elif q in VALID_POLY and (q == 16 or draw(st.booleans())):
        lines.append("poly " + " ".join(map(str, VALID_POLY[q])))
    n = 0 if flaw == "n" else draw(st.integers(1, 4))
    lines.append(f"n {n}")
    entry = st.integers(0, max(q, 2) - 1).map(str)
    if flaw not in ("q", "n") and draw(st.integers(0, 2)):
        # Self-orthogonal codes of dimension n often have d = 2: l = 1 works.
        code = random_self_orthogonal(GF(q, VALID_POLY.get(q)), n,
                                      draw(st.sampled_from([n, n, n - 1])),
                                      seed=draw(st.integers(0, 9)))
        rows = [[str(v) for v in row] for row in code.basis.array.tolist()]
    else:
        rows = draw(st.lists(st.lists(entry, min_size=2 * n, max_size=2 * n),
                             max_size=4))
    if flaw == "row":
        stray = st.one_of(entry, st.sampled_from([str(q), "-1", "x", "|"]))
        rows.insert(draw(st.integers(0, len(rows))),
                    draw(st.lists(stray, max_size=10)))
    for row in rows:
        half = (len(row) + 1) // 2
        text = " ".join(row[:half] + ["|"] + row[half:])
        lines.append(text + draw(st.sampled_from(["", "  # note", "\n"])))
    return "\n".join(lines) + "\n"


# The [[4,2,2]]_2 code: self-orthogonal, its dual has d = 2, so l = 1.
FOUR_TWO_TWO = "q 2\nn 4\n1 1 1 1 | 0 0 0 0\n0 0 0 0 | 1 1 1 1\n"


@settings(derandomize=True, deadline=None, max_examples=60)
@given(text=code_files(), cap=st.sampled_from([1024, 256, 16, 1]),
       fmt=st.sampled_from(["text", "json"]),
       positions=st.sampled_from(["1", "2", "1,2", "3", "0", "5", "2,2", ",",
                                  "a"]),
       all_positions=st.booleans(), ell=st.integers(-1, 3),
       limit=st.sampled_from([None, 0, 1, 3, -1]))
@example(text=FOUR_TWO_TWO, cap=1024, fmt="text", positions="1",
         all_positions=False, ell=1, limit=None)
def test_cli_exit_code_contract_property(tmp_path_factory, text, cap, fmt,
                                         positions, all_positions, ell, limit):
    """Every subcommand returns 0, 1, 2 or 3 and raises nothing; on 2 and
    3 stdout stays empty and stderr holds one `error: ` line, on 0 and 1
    stderr stays empty."""
    path = tmp_path_factory.getbasetemp() / "contract.txt"
    path.write_text(text)
    selected = [f"--positions={positions}"]
    options = {
        "params": [], "dual": [], "compare-remark": [],
        "puncture": selected, "shorten": selected, "construct": selected,
        "verify-lemmas": [] if all_positions else selected,
        "search": [f"--ell={ell}"] + ([] if limit is None
                                      else [f"--limit={limit}"]),
    }
    for command, extra in options.items():
        argv = [command, str(path), f"--cap={cap}", f"--format={fmt}", *extra]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = main(argv)
        assert status in (0, 1, 2, 3), argv
        if status >= 2:
            assert out.getvalue() == "", argv
            assert err.getvalue().startswith("error: "), argv
            assert err.getvalue().count("\n") == 1, argv
            assert err.getvalue().endswith("\n"), argv
        else:
            assert err.getvalue() == "", argv
