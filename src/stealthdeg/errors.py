"""Exception hierarchy shared across the package: one class per CLI exit code."""


class StealthdegError(Exception):
    """Base class for every error raised by this package."""


class CaseSyntaxError(StealthdegError):
    """Case-file text could not be parsed (exit 2); message carries the line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(StealthdegError):
    """Structurally parseable input violates a model invariant (exit 2)."""


class SingularityError(StealthdegError):
    """A factorization that should be positive definite failed (exit 3).

    Also raised for a non-finite or nonpositive result.
    """
