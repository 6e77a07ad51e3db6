"""Error types shared across the package."""


class DomainError(ValueError):
    """A precondition of an operation was violated (bad dimension, zero
    denominator, entry outside the valuation ring, and so on)."""


class ParseError(ValueError):
    """An expression failed to parse.  Carries the 1-based line and column
    of the offending token."""

    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class InvariantError(AssertionError):
    """An internal invariant that guards exactness failed.  Raised
    explicitly, so the check also runs under ``python -O``."""
