"""Exception hierarchy shared by all murmur modules.

Each category maps to one CLI exit code: usage/domain problems are 1,
data problems 2, accuracy problems 3, empty averaging windows 4.
"""


class MurmurError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class DomainError(MurmurError):
    """Arguments outside the supported domain of an operation."""

    exit_code = 1


class SizeError(DomainError):
    """Requested table or sum size exceeds what the platform supports."""

    exit_code = 1


class DataError(MurmurError):
    """Malformed, inconsistent, or incomplete input data."""

    exit_code = 2


class CoverageError(DataError):
    """A coefficient lookup beyond what the data source provides."""

    exit_code = 2


class AccuracyError(MurmurError):
    """A requested tolerance could not be certified within budget.

    Carries the best value and error estimate achieved so far in
    ``best`` and ``estimate`` (either may be None).
    """

    exit_code = 3

    def __init__(self, message, best=None, estimate=None):
        super().__init__(message)
        self.best = best
        self.estimate = estimate


class WindowError(MurmurError):
    """An averaging window selected no family members or no primes."""

    exit_code = 4
