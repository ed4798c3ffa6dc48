"""Exception types shared across the package."""

from __future__ import annotations


class CapExceededError(RuntimeError):
    """An enumeration would visit more codewords than the configured cap.

    Raised before any work is done, so callers can retry with a larger cap.
    """

    def __init__(self, required: int, cap: int) -> None:
        bits = required.bit_length()  # str() refuses > 4300 digits by default
        shown = required if bits <= 1024 else f"at least 2^{bits - 1}"
        super().__init__(
            f"enumeration needs {shown} codewords but the cap is {cap}; "
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
