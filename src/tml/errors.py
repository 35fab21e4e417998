"""Exception types shared across the package."""


class TmlError(Exception):
    """Base class for all library errors."""


class FieldMismatch(TmlError):
    """Operands belong to different fields or towers."""


class ShapeMismatch(TmlError):
    """Matrix or vector dimensions are incompatible."""


class ZeroDivisor(TmlError):
    """Inversion hit a noninvertible element.

    Over a tower built on a reducible defining polynomial this carries the
    offending element so the caller can see the zero divisor explicitly.
    """

    def __init__(self, message, element=None):
        super().__init__(message)
        self.element = element


class NotNilpotent(TmlError):
    """The constant term of the module action is not T*I plus a nilpotent."""


class NonInvertibleLeading(TmlError):
    """A leading coefficient that must be invertible is singular."""


class SingularSystem(TmlError):
    """An exact linear system that should be solvable turned out singular."""


class ParseError(TmlError):
    """Manifest or expression syntax error with position information."""

    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" (line {line})" if col is None else f" (line {line}, col {col})"
        elif col is not None:
            loc = f" (col {col})"
        super().__init__(message + loc)
        self.line = line
        self.col = col


class InputError(TmlError):
    """An input file could not be read or decoded."""


class BadParameter(TmlError, ValueError):
    """A numeric parameter is out of range, such as a negative bound."""


class CertificateError(TmlError):
    """A certificate failed its independent re-check."""
