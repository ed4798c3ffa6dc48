"""Command-line interface and the on-disk code file format.

Code files look like:

    # optional comment
    q 2             field order (prime power p^m, <= 256)
    poly 1 1 1      optional, m > 1 only: irreducible coefficients, little-endian
    n 5             symplectic block length
    1 0 0 1 0 | 0 1 1 0 0     one basis row per line, a-half | b-half

'#' starts a comment, blank lines are ignored, integers are ASCII digits
with an optional '-', entries are element codes below q, and every row
carries exactly n entries on each side of the bar.  Parsing is strict;
diagnostics carry 1-based line and column numbers.  Serialization always
emits the canonical RREF basis, so identical code spaces produce
byte-identical files.

Subcommands: params, dual, puncture, shorten, construct, verify-lemmas,
search, compare-remark.  Reports go to stdout, diagnostics to stderr.
Exit codes: 0 success / all checks pass, 1 some check failed, 2 usage or
input errors or out of memory, 3 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from importlib import resources
from pathlib import Path

from .errors import CapExceededError, CodeFileError
from .field import GF, DEFAULT_IRREDUCIBLE, MAX_Q, prime_power_decomposition
from .symplectic import DEFAULT_CAP, LinearCode
from .transform import (PositionSet, TheoremReport, compare_applicability,
                        construct_eaqecc, parse_int, puncture, search_positions,
                        shorten, verify_lemmas)


# ----------------------------------------------------------------------
# code file format
# ----------------------------------------------------------------------
def _tokens(line: str) -> list[tuple[str, int]]:
    """(token, 1-based column) pairs of the line with comments stripped."""
    body = line.split("#", 1)[0]
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", body)]


def _parse_int(tok: str, lineno: int, col: int, what: str) -> int:
    try:
        return parse_int(tok)
    except ValueError:
        raise CodeFileError(f"{what} must be an integer, got {tok!r}",
                            lineno, col) from None


def _int_option(text: str) -> int:
    """argparse type of --cap, --ell and --limit, refused as `int` would be."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_row(toks: list[tuple[str, int]], n: int, q: int,
               lineno: int) -> list[int]:
    bars = [idx for idx, (t, _) in enumerate(toks) if t == "|"]
    if len(bars) != 1:
        raise CodeFileError("row must contain exactly one '|' between the halves",
                            lineno, toks[0][1])
    left, right = toks[:bars[0]], toks[bars[0] + 1:]
    for half, name in ((left, "a-half"), (right, "b-half")):
        if len(half) != n:
            raise CodeFileError(
                f"{name} has {len(half)} entries, expected n = {n}",
                lineno, half[0][1] if half else toks[bars[0]][1])
    row = []
    for tok, col in left + right:
        value = _parse_int(tok, lineno, col, "entry")
        if value < 0 or value >= q:
            raise CodeFileError(f"entry {value} is not below q = {q}", lineno, col)
        row.append(value)
    return row


def _make_field(q: int, poly: list[int] | None, q_line: int,
                poly_line: int | None) -> GF:
    if q > MAX_Q:
        raise CodeFileError(f"field order {q} exceeds the supported cap {MAX_Q}",
                            q_line)
    try:
        p, m = prime_power_decomposition(q)
    except ValueError as exc:
        raise CodeFileError(str(exc), q_line) from exc
    if m == 1 and poly is not None:
        raise CodeFileError(f"prime field GF({q}) takes no 'poly' line", poly_line)
    if m > 1 and poly is None and q not in DEFAULT_IRREDUCIBLE:
        raise CodeFileError(
            f"GF({q}) needs an explicit 'poly' line before 'n'", q_line)
    try:  # only a 'poly' line can make GF refuse a prime power q <= MAX_Q
        return GF(q, poly)
    except ValueError as exc:
        raise CodeFileError(str(exc), poly_line) from exc


def parse_code_file(text: str) -> LinearCode:
    """Parse the strict code file format into a canonicalized LinearCode."""
    q = n = None
    q_line = poly_line = n_line = None
    poly: list[int] | None = None
    field: GF | None = None
    rows: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        toks = _tokens(raw)
        if not toks:
            continue
        key, col = toks[0]
        if q is None:
            if key != "q" or len(toks) != 2:
                raise CodeFileError("expected 'q <order>' as the first entry",
                                    lineno, col)
            q = _parse_int(toks[1][0], lineno, toks[1][1], "field order")
            q_line = lineno
        elif key == "poly" and n is None:
            if poly is not None:
                raise CodeFileError("duplicate 'poly' line", lineno, col)
            if len(toks) < 2:
                raise CodeFileError("'poly' needs coefficients", lineno, col)
            poly = [_parse_int(t, lineno, c, "coefficient") for t, c in toks[1:]]
            poly_line = lineno
        elif n is None:
            if key != "n" or len(toks) != 2:
                raise CodeFileError(
                    f"expected 'n <length>' (or 'poly ...'), got {key!r}",
                    lineno, col)
            n = _parse_int(toks[1][0], lineno, toks[1][1], "block length")
            if n < 1:
                raise CodeFileError("n must be at least 1", lineno, toks[1][1])
            n_line = lineno
            field = _make_field(q, poly, q_line, poly_line)
        else:
            rows.append(_parse_row(toks, n, field.q, lineno))
    if q is None:
        raise CodeFileError("empty file: expected 'q <order>'")
    if n is None:
        raise CodeFileError("missing 'n <length>' line")
    try:
        return LinearCode(field, n, rows or None)
    except ValueError as exc:  # numpy has no axis of 2n past 2^62 or so
        raise CodeFileError(f"n = {n} is too large: {exc}", n_line) from exc


def serialize_code(code: LinearCode) -> str:
    """Render a code in the file format, rows in canonical RREF order."""
    f = code.field
    lines = [f"q {f.q}"]
    if f.m > 1:
        lines.append("poly " + " ".join(str(c) for c in f.irreducible))
    lines.append(f"n {code.n}")
    for row in code.basis.array:
        a = " ".join(str(int(v)) for v in row[:code.n])
        b = " ".join(str(int(v)) for v in row[code.n:])
        lines.append(f"{a} | {b}")
    return "\n".join(lines) + "\n"


def code_to_dict(code: LinearCode) -> dict:
    return {
        "q": code.field.q,
        "poly": list(code.field.irreducible) if code.field.m > 1 else None,
        "n": code.n,
        "rows": [[int(v) for v in row] for row in code.basis.array],
    }


def bundled_code_path(name: str = "code_A.txt") -> Path:
    """Filesystem path of a sample code file shipped with the package."""
    return Path(str(resources.files("eaqecc").joinpath("data", name)))


# ----------------------------------------------------------------------
# report rendering
# ----------------------------------------------------------------------
def emit_report(report: TheoremReport, fmt: str = "text") -> str:
    """Serialize a report; text lists one status line per check."""
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2) + "\n"
    lines = [f"positions: {report.positions}",
             f"input:  {report.input_params.display()}"]
    if report.output_params is not None:
        lines.append(f"output: {report.output_params.display()}")
    for check in report.checks:
        lines.append(f"{check.status.upper()} {check.name}: "
                     f"expected {check.expected}, actual {check.actual}")
    lines.append(f"verdict: {'PASS' if report.overall else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _params_text(params) -> str:
    def fmt(value):
        if value is None:
            return "undefined"
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    lines = [params.display()]
    for key in ("q", "n", "k", "d", "c", "pure_d", "is_stabilizer_qecc"):
        lines.append(f"{key} = {fmt(getattr(params, key))}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# argument parsing and dispatch
# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eaqecc",
        description="Symplectic linear codes: duals, parameters, puncturing, "
                    "shortening, and the entanglement-assisted construction.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, positions=False, ell=False, limit=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="code file to load")
        p.add_argument("--cap", type=_int_option, default=DEFAULT_CAP,
                       help="codeword enumeration cap (default 2^22)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if positions:
            p.add_argument("--positions", required=(name != "verify-lemmas"),
                           help="comma-separated 1-indexed positions, e.g. 1,3")
        if ell:
            p.add_argument("--ell", type=_int_option, required=True,
                           help="number of positions to puncture")
        if limit:
            p.add_argument("--limit", type=_int_option, default=None,
                           help="evaluate only the first N position sets")
        return p

    add("params", "print the code's parameter tuple")
    add("dual", "print the symplectic dual code")
    add("puncture", "delete the selected coordinate pairs", positions=True)
    add("shorten", "restrict to vanishing codewords, then delete", positions=True)
    add("construct", "build the entanglement-assisted code and verify it",
        positions=True)
    add("verify-lemmas", "check the single-position facts (default: all positions)",
        positions=True)
    add("search", "evaluate every position set of size ell", ell=True, limit=True)
    add("compare-remark", "compare admissible l under both weight criteria")
    return parser


def _load(path: str) -> LinearCode:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CodeFileError(f"cannot read {path}: {exc.strerror}") from exc
    return parse_code_file(text)


def _emit_code(code: LinearCode, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(code_to_dict(code), indent=2))
    else:
        sys.stdout.write(serialize_code(code))


def _dispatch(args: argparse.Namespace) -> int:
    if args.cap < 1:
        raise ValueError(f"--cap must be at least 1, got {args.cap}")
    code = _load(args.file)
    pset = None
    if getattr(args, "positions", None) is not None:
        pset = PositionSet.parse(args.positions)
        if not pset:
            raise ValueError("--positions needs at least one position")

    if args.command == "params":
        params = code.params(cap=args.cap)
        if args.format == "json":
            print(json.dumps(params.to_dict(), indent=2))
        else:
            sys.stdout.write(_params_text(params))
        return 0

    if args.command == "dual":
        _emit_code(code.dual(), args.format)
        return 0

    if args.command in ("puncture", "shorten"):
        result = (puncture if args.command == "puncture" else shorten)(code, pset)
        _emit_code(result, args.format)
        return 0

    if args.command == "construct":
        result, report = construct_eaqecc(code, pset, cap=args.cap)
        if args.format == "json":
            print(json.dumps({"code": code_to_dict(result),
                              "report": report.to_dict()}, indent=2))
        else:
            sys.stdout.write(serialize_code(result))
            sys.stdout.write("\n")
            sys.stdout.write(emit_report(report, "text"))
        return 0 if report.overall else 1

    if args.command == "verify-lemmas":
        report = verify_lemmas(code, pset, cap=args.cap)
        sys.stdout.write(emit_report(report, args.format))
        return 0 if report.overall else 1

    if args.command == "search":
        if args.limit is not None and args.limit < 0:
            raise ValueError(f"--limit must be nonnegative, got {args.limit}")
        results = search_positions(code, args.ell, cap=args.cap, limit=args.limit)
        if args.format == "json":
            print(json.dumps({"results": [
                {"positions": list(pset), "params": params.to_dict()}
                for pset, params in results]}, indent=2))
        else:
            for pset, params in results:
                print(f"positions={pset} {params.display()} "
                      f"dual_min_weight={params.pure_d}")
        return 0

    if args.command == "compare-remark":
        sympl_max, hamming_max = compare_applicability(code, cap=args.cap)
        if args.format == "json":
            print(json.dumps({"symplectic_max_l": sympl_max,
                              "hamming_max_l": hamming_max}, indent=2))
        else:
            print(f"symplectic_max_l = {sympl_max}")
            print(f"hamming_max_l = {hamming_max}")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # CodeFileError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
