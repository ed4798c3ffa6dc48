"""Symplectic linear codes over small finite fields, with the
puncture/shorten construction of entanglement-assisted stabilizer codes
and machine verification of its guarantees."""

from .errors import CapExceededError, CodeFileError
from .field import DEFAULT_IRREDUCIBLE, GF, MAX_Q, prime_power_decomposition
from .matrix import GfMatrix
from .symplectic import (DEFAULT_CAP, CodeParams, LinearCode,
                         random_self_orthogonal, symplectic_product,
                         symplectic_weight)
from .transform import (FAIL, PASS, VACUOUS, CheckResult, PositionSet,
                        TheoremReport, compare_applicability, construct_eaqecc,
                        puncture, search_positions, shorten, verify_lemmas)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError", "CodeFileError",
    "DEFAULT_IRREDUCIBLE", "GF", "MAX_Q", "prime_power_decomposition",
    "GfMatrix",
    "DEFAULT_CAP", "CodeParams", "LinearCode", "random_self_orthogonal",
    "symplectic_product", "symplectic_weight",
    "FAIL", "PASS", "VACUOUS", "CheckResult", "PositionSet", "TheoremReport",
    "compare_applicability", "construct_eaqecc", "puncture",
    "search_positions", "shorten", "verify_lemmas",
    "__version__",
]
