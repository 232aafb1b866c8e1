"""Exception taxonomy shared by every layer of the package."""

from __future__ import annotations


class PdeSeriesError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PdeSeriesError):
    """Numeric evaluation left the domain of a primitive (ln of a
    nonpositive number, zero to a negative power, overflow, sin(inf)),
    or a constant or an exponent that exact arithmetic would form has
    more digits than the interpreter converts to text."""


class SamplingExhausted(PdeSeriesError):
    """No valid sample points could be drawn for a numeric equality check."""


class ParseError(PdeSeriesError):
    """Syntax error in expression text. Carries the byte offset of the
    offending token and the set of token descriptions that would have
    been accepted there."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.message = message
        self.offset = offset
        self.expected = expected
        detail = f"{message} at offset {offset}"
        if expected:
            detail += f" (expected {', '.join(expected)})"
        super().__init__(detail)


class UnknownIdentifier(ParseError):
    """Identifier outside the declared variables and function names."""


class NonIntegerExponent(ParseError):
    """The right side of ^ did not reduce to an integer constant."""


class TimeNotAllowed(ParseError):
    """The time symbol appeared in a context that must be time-free."""


class FormatError(PdeSeriesError):
    """A problem, read from a file or built in Python, is missing a field
    or has one of the wrong type or range, or a dimension or a truncation
    order is below 1."""


class DimensionMismatch(PdeSeriesError):
    """A vector length or derivative multi-index length disagrees with
    the declared problem dimensions."""


class SingularRho(PdeSeriesError):
    """The mass matrix of the problem is not invertible."""


class ExpansionSingular(PdeSeriesError):
    """An expression cannot be expanded about time zero (for example it
    contains ln of the time symbol)."""
