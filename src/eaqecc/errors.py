"""Exception types shared across the package."""

from __future__ import annotations


class CapExceededError(RuntimeError):
    """An enumeration would visit more codewords than the configured cap.

    Raised before any work is done, so callers can retry with a larger cap.
    `required` is None for a count too large to build, at least 2^log2.
    """

    def __init__(self, required: int | None, cap: int,
                 log2: int | None = None) -> None:
        # str() refuses > 4300 digits by default: past 2^1024 show a bound.
        log2 = required.bit_length() - 1 if log2 is None else log2
        shown = required if log2 < 1024 else f"at least 2^{log2}"
        limit = cap if cap.bit_length() <= 1024 else f"at least 2^{cap.bit_length() - 1}"
        super().__init__(
            f"enumeration needs {shown} codewords but the cap is {limit}; "
            "raise the cap to proceed"
        )
        self.required = required
        self.cap = cap


class CodeFileError(ValueError):
    """A code file failed to parse.

    Carries the 1-based line number (and column, when known) of the
    offending input.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None) -> None:
        if line is not None and column is not None:
            full = f"line {line}, col {column}: {message}"
        elif line is not None:
            full = f"line {line}: {message}"
        else:
            full = message
        super().__init__(full)
        self.line = line
        self.column = column
