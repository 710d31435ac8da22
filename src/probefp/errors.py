"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code table: InputError -> 2,
NumericError -> 3, ReducibleChainError -> 4, ExpressionSwellError -> 5.
"""

from __future__ import annotations


class ProbeFpError(Exception):
    """Base class for all errors raised by probefp."""


class InputError(ProbeFpError):
    """A file, expression, or machine definition is invalid."""


class ExprSyntaxError(InputError):
    """Malformed expression text; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class PlayerFormatError(InputError):
    """Bad player file; carries the 1-based line number where known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ProbeFormatError(InputError):
    """Bad probe file; carries the 1-based line number where known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ProbeValidationError(InputError):
    """Probe distributions violate sum-to-one or nonnegativity."""


class PayoffError(InputError):
    """Payoff matrix is not total over the alphabet in use."""


class AlphabetMismatchError(InputError):
    """Player and probe declare different alphabets."""


class NumericError(ProbeFpError):
    """A numeric computation failed at a specific parameter point."""


class OutOfSimplexError(NumericError):
    def __init__(self, x: float, y: float):
        super().__init__(f"point ({x!r}, {y!r}) lies outside the parameter triangle")
        self.point = (x, y)


class NegativeWeightError(NumericError):
    """An evaluated probability fell below tolerance at some point."""

    def __init__(self, message: str, point: tuple[float, float]):
        super().__init__(f"{message} at point {point}")
        self.point = point


class SingularSystemError(NumericError):
    """A limit solve failed: a state with no out-flow to eliminate, or an
    absorption sum, residual or total mass off tolerance."""


class SingularPointError(NumericError):
    """Rational-function denominator vanishes at the evaluation point."""

    def __init__(self, x: float, y: float):
        super().__init__(f"denominator vanishes at ({x!r}, {y!r})")
        self.point = (x, y)


class ReducibleChainError(ProbeFpError):
    """Closed-form mode requires an irreducible chain; carries the classes found."""

    def __init__(self, message: str, classes=None):
        super().__init__(message)
        self.classes = classes


class ExpressionSwellError(ProbeFpError):
    """An intermediate polynomial exceeded the term-count cap."""

    def __init__(self, terms: int, cap: int):
        super().__init__(f"intermediate polynomial has {terms} terms (cap {cap})")
        self.terms = terms
        self.cap = cap


class ExactDivisionError(ProbeFpError):
    """Polynomial division was expected to be exact but left a remainder."""
