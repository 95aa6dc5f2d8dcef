"""Exception hierarchy shared across the package."""


class StealthdegError(Exception):
    """Base class for every error raised by this package."""


class CaseSyntaxError(StealthdegError):
    """Case-file text could not be parsed; message carries the line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(StealthdegError):
    """Structurally parseable input violates a model invariant."""


class EmptyGridError(ValidationError):
    """A case has no in-service branch."""


class DisconnectedGridError(ValidationError):
    """The in-service branch graph does not connect all buses."""


class DomainError(StealthdegError):
    """Scalar argument outside its mathematical domain."""


class SingularityError(StealthdegError):
    """A factorization that should be positive definite failed."""


class CapExceededError(StealthdegError):
    """Exhaustive vertex enumeration was requested beyond the enumeration cap."""


class UnreachableAlphaError(StealthdegError):
    """Requested incompleteness budget cannot be met inside the unit box."""
