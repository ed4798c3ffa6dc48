"""Puncturing and shortening of symplectic codes, and the derived
entanglement-assisted construction with its machine checks.

Puncturing at position i deletes the paired coordinates (i, n+i) from
every codeword; shortening first restricts to the codewords vanishing
there (`GfMatrix.vanishing_at`).  Starting from a self-orthogonal code C
whose dual has minimum symplectic weight d, puncturing any set of
l <= d-1 positions yields an entanglement-assisted stabilizer code that
keeps k while trading the l removed pairs for l units of preshared
entanglement, and the new dual's minimum weight stays at least d.

`construct_eaqecc` performs that construction and re-verifies each clause
on the concrete instance, `verify_lemmas` checks the supporting
single-position facts at each position of a set, `search_positions`
sweeps all position sets of a given size, and `compare_applicability`
contrasts the admissible l-range with the stricter criterion based on
the dual's classical Hamming weight.

Position sets are 1-indexed at this interface (position i names the
column pair (i, n+i)); multi-position operations delete all selected
pairs simultaneously, with indices always referring to the original
code's coordinates.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import asdict, dataclass, field as dc_field, replace
from typing import Iterable

from .matrix import GfMatrix
from .symplectic import DEFAULT_CAP, CodeParams, LinearCode

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"


def parse_int(text: str) -> int:
    """int(text) for ASCII digits and an optional '-' only, refused as by int."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


class PositionSet:
    """Sorted duplicate-free set of 1-indexed coordinate positions."""

    __slots__ = ("positions",)

    def __init__(self, positions: Iterable[int]) -> None:
        pos = tuple(int(i) for i in positions)
        if any(i < 1 for i in pos):
            raise ValueError(f"positions are 1-indexed, got {sorted(pos)}")
        if len(set(pos)) != len(pos):
            raise ValueError(f"duplicate positions in {sorted(pos)}")
        self.positions = tuple(sorted(pos))

    @classmethod
    def parse(cls, text: str) -> "PositionSet":
        """Parse a comma-separated list such as '1,3'."""
        items = [t.strip() for t in text.split(",") if t.strip()]
        try:
            return cls(parse_int(t) for t in items)
        except ValueError as exc:
            raise ValueError(f"bad position list {text!r}: {exc}") from exc

    @property
    def ell(self) -> int:
        return len(self.positions)

    def validate_for(self, n: int) -> None:
        for i in self.positions:
            if i > n:
                raise ValueError(f"position {i} out of range for n={n}")

    def columns(self, n: int) -> list[int]:
        """0-indexed columns (i-1 and n+i-1 for each position i), ascending."""
        return [i - 1 for i in self.positions] + [n + i - 1 for i in self.positions]

    def __len__(self) -> int:
        return len(self.positions)

    def __iter__(self):
        return iter(self.positions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PositionSet):
            return NotImplemented
        return self.positions == other.positions

    def __hash__(self) -> int:
        return hash(self.positions)

    def __str__(self) -> str:
        return ",".join(str(i) for i in self.positions)

    def __repr__(self) -> str:
        return f"PositionSet({list(self.positions)!r})"


def _as_positions(positions) -> PositionSet:
    return positions if isinstance(positions, PositionSet) else PositionSet(positions)


@dataclass(frozen=True)
class CheckResult:
    """One verified clause: an expectation, what was observed, a status."""

    name: str
    expected: str
    actual: str
    status: str


@dataclass
class TheoremReport:
    """Outcome of a construction or lemma verification run.

    The verdict `overall` is derived from the checks, never stored: it is
    True iff no check failed.  Vacuous checks (hypothesis not met) neither
    pass nor fail.
    """

    positions: PositionSet
    input_params: CodeParams
    output_params: CodeParams | None
    checks: list[CheckResult] = dc_field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "positions": list(self.positions),
            "input_params": self.input_params.to_dict(),
            "output_params": (self.output_params.to_dict()
                              if self.output_params is not None else None),
            "checks": [asdict(c) for c in self.checks],
            "overall": self.overall,
        }


def _check(name: str, expected, actual, ok: bool) -> CheckResult:
    return CheckResult(name, str(expected), str(actual), PASS if ok else FAIL)


def _check_eq(name: str, expected, actual) -> CheckResult:
    return _check(name, expected, actual, expected == actual)


# ----------------------------------------------------------------------
# puncture / shorten
# ----------------------------------------------------------------------
def puncture(code: LinearCode, positions) -> LinearCode:
    """Delete the paired coordinates of every selected position at once."""
    pset = _as_positions(positions)
    pset.validate_for(code.n)
    cols = pset.columns(code.n)
    basis = code.basis.delete_columns(cols)
    return LinearCode(code.field, code.n - len(pset), basis)


def shorten(code: LinearCode, positions) -> LinearCode:
    """Restrict to codewords vanishing on the selected pairs, then delete them."""
    pset = _as_positions(positions)
    pset.validate_for(code.n)
    return LinearCode(code.field, code.n - len(pset),
                      code.basis.vanishing_at(pset.columns(code.n)))


# ----------------------------------------------------------------------
# the construction
# ----------------------------------------------------------------------
def _self_orthogonal_params(code: LinearCode, cap: int) -> CodeParams:
    """The parameters of a self-orthogonal code, whose d is its dual's
    minimum weight; any other code is refused before the cap is checked."""
    if not code.is_self_orthogonal():
        raise ValueError("input code is not self-orthogonal under the symplectic form")
    return code.params(cap=cap)


def _require_admissible(ell: int, d: int | None) -> None:
    if d is None or not 1 <= ell <= d - 1:
        raise ValueError(f"l must satisfy 1 <= l <= d-1 (l={ell}, d={d})")


def construct_eaqecc(code: LinearCode, positions, cap: int = DEFAULT_CAP
                     ) -> tuple[LinearCode, TheoremReport]:
    """Puncture a self-orthogonal code and verify the resulting parameters.

    Requires 1 <= l <= d-1 where l is the number of positions and d is
    the minimum symplectic weight of the dual.  Returns the punctured
    code together with a report whose six checks cover dimension
    preservation, the entanglement and logical-qudit counts, the distance
    lower bound, the exchange of puncturing and shortening under duality,
    and the intersection identity tying the new code's self-orthogonal
    part to shortening.
    """
    pset = _as_positions(positions)
    pset.validate_for(code.n)
    ell = pset.ell
    input_params = _self_orthogonal_params(code, cap)
    d = input_params.d
    _require_admissible(ell, d)

    punctured = puncture(code, pset)
    new_dual = punctured.dual()
    shortened_dual = shorten(code.dual(), pset)
    shortened_code = shorten(code, pset)
    meet = punctured.radical()
    output_params = punctured.params(cap=cap)

    k_by_formula = ell + (code.n - ell) - punctured.dim
    checks = [
        _check_eq("dim_preserved", code.dim, punctured.dim),
        _check_eq("entanglement_equals_l", ell, output_params.c),
        _check_eq("k_preserved", input_params.k, k_by_formula),
        # A dual of {0} has no nonzero word: its minimum is vacuously >= d.
        _check("dual_min_weight_at_least_d", f">= {d}", output_params.pure_d,
               output_params.pure_d is None or output_params.pure_d >= d),
        _check("duality_exchange",
               "dual of punctured == shortened dual",
               "equal" if new_dual == shortened_dual else "different",
               new_dual == shortened_dual),
        _check("intersection_identity",
               "punctured n its dual == shortened code",
               "equal" if meet == shortened_code else "different",
               meet == shortened_code),
    ]
    report = TheoremReport(positions=pset, input_params=input_params,
                           output_params=output_params, checks=checks)
    return punctured, report


# ----------------------------------------------------------------------
# lemma-level verification
# ----------------------------------------------------------------------
_LEMMA_CHECKS = ("puncture_preserves_dim", "dual_matrix_column_condition",
                 "shorten_dual_drops_dim_by_two",
                 "shortened_dual_is_dual_of_punctured")


def _pair_dependent(mat: GfMatrix, col_a: int, col_b: int) -> bool:
    """True iff the two columns are linearly dependent (as a 2-column matrix)."""
    return GfMatrix(mat.field, mat.array[:, [col_a, col_b]]).rank() <= 1


def verify_lemmas(code: LinearCode, positions=None,
                  cap: int = DEFAULT_CAP) -> TheoremReport:
    """Check the single-position facts behind the construction at each
    of `positions` (default: all).

    All four main checks are conditional on the code having minimum
    symplectic weight at least 2; when that hypothesis fails they are
    reported as vacuous.  A fifth check runs in the other direction: if
    the dual's basis matrix has a zero column or the position's column
    pair is linearly dependent, the code must contain a weight-1 word.

    Several positions name each check `name[i=position]`, in ascending
    order, and report no output parameters; one position keeps the plain
    names and reports the punctured code's structural parameters (every
    check here is dimensional, so nothing is enumerated).
    """
    pset = (PositionSet(range(1, code.n + 1)) if positions is None
            else _as_positions(positions))
    if not pset:
        raise ValueError("verify_lemmas needs at least one position")
    pset.validate_for(code.n)
    w = code.min_symplectic_weight(cap=cap)
    hypothesis = w is not None and w >= 2
    dual = code.dual()
    zero_col = bool((~dual.basis.array.any(axis=0)).any())
    checks = []
    for i in pset:
        dependent = _pair_dependent(dual.basis, i - 1, code.n + i - 1)
        column_condition_violated = zero_col or dependent
        punctured = puncture(code, [i])
        if hypothesis:
            shortened_dual = shorten(dual, [i])
            new_dual = punctured.dual()
            part = [
                _check_eq("puncture_preserves_dim", code.dim, punctured.dim),
                _check("dual_matrix_column_condition",
                       "no zero column; pair columns independent",
                       f"zero column: {zero_col}; dependent pair: {dependent}",
                       not column_condition_violated),
                _check_eq("shorten_dual_drops_dim_by_two",
                          dual.dim - 2, shortened_dual.dim),
                _check("shortened_dual_is_dual_of_punctured",
                       "shortened dual == dual of punctured",
                       "equal" if shortened_dual == new_dual else "different",
                       shortened_dual == new_dual),
            ]
        else:
            part = [CheckResult(name, "hypothesis: min symplectic weight >= 2",
                                f"hypothesis not met (min weight {w})", VACUOUS)
                    for name in _LEMMA_CHECKS]
        if column_condition_violated:
            part.append(_check("column_condition_implies_weight_one",
                               "min weight 1", w, w == 1))
        else:
            part.append(CheckResult("column_condition_implies_weight_one",
                                    "hypothesis: zero column or dependent pair",
                                    "column condition holds", VACUOUS))
        if len(pset) > 1:
            part = [replace(check, name=f"{check.name}[i={i}]") for check in part]
        checks += part

    # With one position, `punctured` is the code punctured there.
    output_params = punctured.structural_params() if len(pset) == 1 else None
    return TheoremReport(positions=pset,
                         input_params=code.structural_params(),
                         output_params=output_params, checks=checks)


# ----------------------------------------------------------------------
# applicability comparison and position search
# ----------------------------------------------------------------------
def compare_applicability(code: LinearCode,
                          cap: int = DEFAULT_CAP) -> tuple[int, int]:
    """Largest admissible l under each of two hypotheses on the dual.

    Returns (symplectic_max_l, hamming_max_l): d - 1 where d is the
    dual's minimum symplectic weight, versus the largest l with
    2l < w_H where w_H is the dual's minimum Hamming weight as a plain
    length-2n code.  Since the symplectic weight of a vector never
    exceeds its Hamming weight (a nonzero pair costs at most two nonzero
    entries), the first bound always dominates the second.
    """
    d = _self_orthogonal_params(code, cap).d
    w_h = code.dual().min_hamming_weight(cap=cap)
    if d is None or w_h is None:
        raise ValueError("dual code is trivial; applicability is undefined")
    return d - 1, (w_h + 1) // 2 - 1


def search_positions(code: LinearCode, ell: int, cap: int = DEFAULT_CAP,
                     limit: int | None = None
                     ) -> list[tuple[PositionSet, CodeParams]]:
    """Parameters of the punctured code over position sets of size `ell`.

    Checks the construction's precondition once, which enumerates the
    code's dual once for the whole sweep, then evaluates the punctured
    code's `params` for all C(n, ell) sets (or the first `limit` in
    lexicographic order).  These equal the `output_params` that
    `construct_eaqecc` reports for each set.  Returns (positions,
    parameters) pairs sorted by descending dual minimum weight, ties
    broken by ascending positions.
    """
    _require_admissible(ell, _self_orthogonal_params(code, cap).d)
    combos = itertools.combinations(range(1, code.n + 1), ell)
    if limit is not None:
        combos = itertools.islice(combos, limit)
    results = []
    for combo in combos:
        pset = PositionSet(combo)
        results.append((pset, puncture(code, pset).params(cap=cap)))
    results.sort(key=lambda item: (-(item[1].pure_d or 0), item[0].positions))
    return results
