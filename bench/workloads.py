"""The benchmark's workloads: seeded inputs, command lists and output checks.

A workload is a set of code files generated from a seed (see `generate`)
plus a fixed list of CLI commands run on them (see `steps`).  Each step
carries a check that reads only the command's exit code and stdout, so the
checks use the standard library and never call back into eaqecc.  Why each
workload exists is written down in README.md next to this file.

This module imports neither numpy nor eaqecc at import time: the set-up
subprocess times `import eaqecc` itself.
"""

from __future__ import annotations

import itertools
import os
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Every pool numpy or its BLAS could start is pinned to one thread, so a
# workload is a single closed-loop client on one core.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# GF(256) modulus x^8 + x^4 + x^3 + x^2 + 1, little-endian coefficients.
GF256_POLY = (1, 0, 1, 1, 1, 0, 0, 0, 1)


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_eaqecc():
    """Import eaqecc from this checkout's `src/`, never from elsewhere."""
    init = SRC / "eaqecc" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: {init} not found; run from a checkout "
                         "that holds the eaqecc sources")
    sys.path.insert(0, str(SRC))
    import eaqecc
    import eaqecc.cli  # the program under test; binds eaqecc.cli
    if Path(eaqecc.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported eaqecc from {eaqecc.__file__}, "
                         f"expected {init}")
    return eaqecc


# ----------------------------------------------------------------------
# input generation (runs in the set-up subprocess)
# ----------------------------------------------------------------------
def _dual_weight_at_least(eaqecc, code, w: int) -> bool:
    """True iff dual(code) has no nonzero word on fewer than w positions.

    A dual word supported on a position set S exists iff the 2|S| basis
    columns of S are linearly dependent, so this needs only small ranks,
    no enumeration.
    """
    arr = code.basis.array
    for size in range(1, w):
        for pos in itertools.combinations(range(code.n), size):
            cols = list(pos) + [code.n + i for i in pos]
            if eaqecc.GfMatrix(code.field, arr[:, cols]).rank() < 2 * size:
                return False
    return True


def _rso_with_dual_weight(eaqecc, rng, field, n, dim, w):
    """First seeded self-orthogonal code whose dual has min weight >= w.

    The weight floor keeps every exhaustive enumeration from stopping at
    a weight-1 word, so run time does not jump between seeds.
    """
    while True:
        code = eaqecc.random_self_orthogonal(field, n, dim,
                                             seed=rng.randrange(2**32))
        if _dual_weight_at_least(eaqecc, code, w):
            return code


def _gen_distance_gf2(eaqecc, rng):
    gf2 = eaqecc.GF(2)
    a = _rso_with_dual_weight(eaqecc, rng, gf2, 18, 14, 3)
    b = _rso_with_dual_weight(eaqecc, rng, gf2, 16, 10, 2)
    positions = sorted(rng.sample(range(1, a.n + 1), 2))
    p = eaqecc.puncture(a, positions)
    codes = {"A": a, "B": b, "P": p}
    meta = {name: {"q": 2, "n": c.n, "dim": c.dim} for name, c in codes.items()}
    meta["A"].update(c=0, d_min=3)
    meta["B"].update(c=0, d_min=2)
    # Puncturing l <= d-1 positions of a self-orthogonal code costs l pairs.
    meta["P"].update(c=2, d_min=3, punctured_at=positions)
    return codes, meta


def _gen_sweep_gf4(eaqecc, rng):
    g = _rso_with_dual_weight(eaqecc, rng, eaqecc.GF(4), 9, 7, 3)
    meta = {"G": {"q": 4, "n": g.n, "dim": g.dim, "c": 0, "d_min": 3,
                  "k": g.n - g.dim, "ell": 2}}
    return {"G": g}, meta


def _column_rank(eaqecc, code, cols) -> int:
    return eaqecc.GfMatrix(code.field, code.basis.array[:, cols]).rank()


def _gen_structure_ext(eaqecc, rng):
    h = eaqecc.random_self_orthogonal(eaqecc.GF(8), 48, 5,
                                      seed=rng.randrange(2**32))
    k = eaqecc.random_self_orthogonal(eaqecc.GF(256, GF256_POLY), 24, 2,
                                      seed=rng.randrange(2**32))
    # Expected dimensions from ranks of basis columns, not from the
    # transform code under test.  S holds the paired columns of positions
    # 1,2,3.  Shortening keeps the codewords that vanish on S, so it loses
    # rank(B[:, S]) dimensions; puncturing keeps the rest of each
    # codeword, which spans rank(B[:, not S]).
    cut = [0, 1, 2, h.n, h.n + 1, h.n + 2]
    rest = [j for j in range(2 * h.n) if j not in cut]
    meta = {
        "H": {"q": 8, "poly": list(h.field.irreducible), "n": h.n, "dim": h.dim,
              "shorten_dim": h.dim - _column_rank(eaqecc, h, cut),
              "puncture_dim": _column_rank(eaqecc, h, rest)},
        "K": {"q": 256, "poly": list(k.field.irreducible), "n": k.n,
              "dim": k.dim},
    }
    return {"H": h, "K": k}, meta


_GENERATORS = {
    "distance-gf2": _gen_distance_gf2,
    "sweep-gf4": _gen_sweep_gf4,
    "structure-ext": _gen_structure_ext,
}


def _code_file(code) -> str:
    """The code file format, written here so inputs do not depend on the
    CLI's own serializer."""
    lines = [f"q {code.field.q}"]
    if code.field.irreducible is not None:
        lines.append("poly " + " ".join(map(str, code.field.irreducible)))
    lines.append(f"n {code.n}")
    for row in code.basis.array.tolist():
        lines.append(" ".join(map(str, row[:code.n])) + " | "
                     + " ".join(map(str, row[code.n:])))
    return "\n".join(lines) + "\n"


def generate(eaqecc, workload: str, seed: int):
    """Seeded code files of a workload: ({name: file text}, meta)."""
    rng = random.Random(f"{workload}:{seed}")
    codes, meta = _GENERATORS[workload](eaqecc, rng)
    return {name: _code_file(c) for name, c in codes.items()}, meta


# ----------------------------------------------------------------------
# commands and their checks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Step:
    """One CLI command of a pass.

    `argv` maps (file paths, stdout of the pass's earlier steps by name)
    to the arguments of `eaqecc.cli.main`; `check` maps (exit code,
    stdout) to a list of problems, empty when the output is correct.
    """

    name: str
    argv: Callable[[dict, dict], list[str]]
    check: Callable[[int, str], list[str]]


def _exit_zero(rc: int) -> list[str]:
    return [] if rc == 0 else [f"exit code {rc}, expected 0"]


def _check_params(m: dict) -> Callable[[int, str], list[str]]:
    def check(rc, out):
        problems = _exit_zero(rc)
        lines = out.splitlines()
        fields = dict(line.split(" = ", 1) for line in lines[1:] if " = " in line)
        try:
            q, n, k, c = (int(fields[key]) for key in ("q", "n", "k", "c"))
            d, pure_d = int(fields["d"]), int(fields["pure_d"])
        except (KeyError, ValueError):
            return problems + [f"unreadable params output {out!r}"]
        if (q, n, c) != (m["q"], m["n"], m["c"]):
            problems.append(f"(q, n, c) = {(q, n, c)}, expected "
                            f"{(m['q'], m['n'], m['c'])}")
        if k != n - m["dim"] + c:
            problems.append(f"k = {k} but n - dim + c = {n - m['dim'] + c}")
        # d minimizes over a subset of what pure_d minimizes over.
        if pure_d < m["d_min"] or d < pure_d or (c == 0 and d != pure_d):
            problems.append(f"d = {d}, pure_d = {pure_d} with c = {c} violate "
                            f"d_min = {m['d_min']} <= pure_d <= d")
        expected_stab = "true" if c == 0 else "false"
        if fields.get("is_stabilizer_qecc") != expected_stab:
            problems.append(f"is_stabilizer_qecc should be {expected_stab}")
        if not lines or lines[0] != f"[[{n},{k},{d};{c}]]_{q}":
            problems.append(f"display line {lines[:1]} disagrees with the fields")
        return problems
    return check


def _check_compare(d_min: int) -> Callable[[int, str], list[str]]:
    def check(rc, out):
        problems = _exit_zero(rc)
        found = re.fullmatch(r"symplectic_max_l = (\d+)\nhamming_max_l = (\d+)\n",
                             out)
        if not found:
            return problems + [f"unreadable compare-remark output {out!r}"]
        sympl, hamming = int(found[1]), int(found[2])
        if sympl < hamming:
            problems.append(f"symplectic_max_l {sympl} < hamming_max_l {hamming}")
        if sympl < d_min - 1:
            problems.append(f"symplectic_max_l {sympl} < d_min - 1 = {d_min - 1}")
        return problems
    return check


def _check_verdict(rc, out) -> list[str]:
    problems = _exit_zero(rc)
    lines = out.splitlines()
    if not lines or lines[-1] != "verdict: PASS":
        problems.append(f"last line {lines[-1:]}, expected 'verdict: PASS'")
    if any(line.startswith("FAIL ") for line in lines):
        problems.append("a check reported FAIL")
    return problems


_SEARCH_LINE = re.compile(
    r"positions=(\d+(?:,\d+)*) \[\[(\d+),(\d+),(\d+);(\d+)\]\]_(\d+) "
    r"dual_min_weight=(\d+)")


def _check_search(m: dict) -> Callable[[int, str], list[str]]:
    n, ell = m["n"], m["ell"]
    all_sets = set(itertools.combinations(range(1, n + 1), ell))

    def check(rc, out):
        problems = _exit_zero(rc)
        seen, weights = set(), []
        for line in out.splitlines():
            found = _SEARCH_LINE.fullmatch(line)
            if not found:
                return problems + [f"unreadable search line {line!r}"]
            pos = tuple(int(i) for i in found[1].split(","))
            nn, k, d, c, q, w = (int(found[i]) for i in range(2, 8))
            if (nn, k, c, q) != (n - ell, m["k"], ell, m["q"]) or d != w:
                problems.append(f"line {line!r}: expected "
                                f"[[{n - ell},{m['k']},d;{ell}]]_{m['q']}, d = dual weight")
            if w < m["d_min"]:
                problems.append(f"line {line!r}: dual weight below {m['d_min']}")
            seen.add(pos)
            weights.append((-w, pos))
        if seen != all_sets or len(weights) != len(all_sets):
            problems.append(f"{len(weights)} lines do not cover the "
                            f"{len(all_sets)} position sets once each")
        if weights != sorted(weights):
            problems.append("results not sorted by descending dual weight")
        return problems
    return check


def _check_code_file(m: dict, n: int, dim: int) -> Callable[[int, str], list[str]]:
    """The output is a code file of the expected shape whose rows are RREF.

    Rows in reduced row echelon form are linearly independent, so the row
    count is the dimension; this needs no field arithmetic.
    """
    header = [f"q {m['q']}", "poly " + " ".join(map(str, m["poly"])), f"n {n}"]

    def check(rc, out):
        problems = _exit_zero(rc)
        lines = out.splitlines()
        if lines[:3] != header:
            return problems + [f"header {lines[:3]} does not match {header}"]
        rows = lines[3:]
        if len(rows) != dim:
            problems.append(f"{len(rows)} rows, expected dimension {dim}")
        last_pivot = -1
        matrix = []
        for row in rows:
            halves = [half.split() for half in row.split(" | ")]
            try:
                entries = [int(t) for half in halves for t in half]
            except ValueError:
                entries = []
            if [len(half) for half in halves] != [n, n] or \
                    any(not 0 <= e < m["q"] for e in entries):
                return problems + [f"malformed row {row!r}"]
            pivot = next((j for j, e in enumerate(entries) if e), None)
            if pivot is None or pivot <= last_pivot or entries[pivot] != 1:
                return problems + ["rows are not in reduced row echelon form"]
            last_pivot = pivot
            matrix.append(entries)
        for i, row in enumerate(matrix):
            pivot = next(j for j, e in enumerate(row) if e)
            if any(other[pivot] for k, other in enumerate(matrix) if k != i):
                problems.append("a pivot column has another nonzero entry")
                break
        return problems
    return check


def _top_positions(out: str) -> str:
    found = _SEARCH_LINE.match(out)
    return found[1] if found else ""  # then construct fails and is counted


def steps(workload: str, meta: dict) -> list[Step]:
    """The fixed command list of one pass over a workload."""
    if workload == "distance-gf2":
        return [
            Step("params A", lambda f, o: ["params", f["A"]], _check_params(meta["A"])),
            Step("params B", lambda f, o: ["params", f["B"]], _check_params(meta["B"])),
            Step("params P", lambda f, o: ["params", f["P"]], _check_params(meta["P"])),
            Step("compare-remark B", lambda f, o: ["compare-remark", f["B"]],
                 _check_compare(meta["B"]["d_min"])),
        ]
    if workload == "sweep-gf4":
        g = meta["G"]
        return [
            Step("search G", lambda f, o: ["search", f["G"], "--ell", str(g["ell"])],
                 _check_search(g)),
            # A user constructs the code at the best position set found.
            Step("construct G", lambda f, o: ["construct", f["G"], "--positions",
                                              _top_positions(o["search G"])],
                 _check_verdict),
            Step("verify-lemmas G", lambda f, o: ["verify-lemmas", f["G"]],
                 _check_verdict),
            Step("compare-remark G", lambda f, o: ["compare-remark", f["G"]],
                 _check_compare(g["d_min"])),
        ]
    if workload == "structure-ext":
        h, k = meta["H"], meta["K"]
        return [
            Step("verify-lemmas H", lambda f, o: ["verify-lemmas", f["H"]],
                 _check_verdict),
            Step("shorten H", lambda f, o: ["shorten", f["H"], "--positions", "1,2,3"],
                 _check_code_file(h, h["n"] - 3, h["shorten_dim"])),
            Step("puncture H", lambda f, o: ["puncture", f["H"], "--positions", "1,2,3"],
                 _check_code_file(h, h["n"] - 3, h["puncture_dim"])),
            Step("dual K", lambda f, o: ["dual", f["K"]],
                 _check_code_file(k, k["n"], 2 * k["n"] - k["dim"])),
        ]
    raise KeyError(workload)


WORKLOADS = tuple(_GENERATORS)

# Seeds whose exact stdout digests are recorded in expected.json.
DEFAULT_SEEDS = range(32)

