"""Exception taxonomy shared across the library.

Dedicated classes (instead of bare ValueError) let callers distinguish
usage errors from numerical failures, which the CLI maps to different
exit codes.
"""


class SemistabError(Exception):
    """Base class for all library errors."""


class ShapeError(SemistabError):
    """Inputs have mismatched, empty, or otherwise unusable shapes."""


class DomainError(SemistabError):
    """A parameter lies outside its mathematical domain (p < 1, t < 0, ...)."""


class DegenerateSpaceError(SemistabError):
    """Every cell of the measure space has zero weight."""


class InvalidMatrixError(SemistabError):
    """Matrix is not square or contains NaN/Inf entries."""


class NumericalFailureError(SemistabError):
    """An iterative kernel failed to converge, or a semigroup kernel's result
    stopped being finite (`time` then names the earliest time at which it
    did)."""

    def __init__(self, message, iterations=None, time=None):
        super().__init__(message)
        self.iterations = iterations
        self.time = time


class UnboundedSemigroupError(SemistabError):
    """Defective eigenvalue on the imaginary axis (or unit circle): the
    generated semigroup admits no uniform bound and time averages diverge."""


class ConfigError(SemistabError):
    """Malformed or inconsistent configuration file."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column
