"""Exception types shared across the package.

Every error raised deliberately by this package derives from
RoleModelError, so callers can catch one base class. The subclasses
split along the boundaries callers actually branch on: bad shapes,
bad probability values, undefined conditionals, violated structural
preconditions, exhausted iteration budgets, and malformed files.
``open_text`` opens an input file so that bytes which are not UTF-8
raise the malformed-file error too; ``create_text`` opens an output
file that is removed again if writing it fails.
"""

import contextlib
import os


class RoleModelError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(RoleModelError, ValueError):
    """Operands have incompatible alphabet sizes or axes."""


class DistributionError(RoleModelError, ValueError):
    """A probability vector or table violates its invariants."""


class UndefinedConditionalError(RoleModelError, ValueError):
    """A conditional row was requested for a zero-probability symbol."""


class MarkovViolationError(RoleModelError, ValueError):
    """The operation requires the chain X - Y - Z but the joint violates it."""


class UnsupportedAlphabetError(RoleModelError, ValueError):
    """The operation does not support alphabets of this size."""


class ConvergenceError(RoleModelError, RuntimeError):
    """Iterative minimization exhausted its budget.

    The last iterate is attached as ``last_estimate`` so callers can
    inspect how far the search got.
    """

    def __init__(self, message: str, last_estimate=None):
        super().__init__(message)
        self.last_estimate = last_estimate


class EmptyWindowError(RoleModelError, RuntimeError):
    """A windowed statistic was requested before any sample arrived."""


class SpecFormatError(RoleModelError, ValueError):
    """A scenario, estimator, or sample file failed to parse.

    The message carries the offending path and line number.
    """


@contextlib.contextmanager
def open_text(path):
    """Open an input file as UTF-8 text for reading; bytes that do not
    decode raise SpecFormatError naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise SpecFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


@contextlib.contextmanager
def create_text(path):
    """Open an output file as UTF-8 text for writing; if the block raises,
    the partial file is removed and the error propagates."""
    with open(path, "w", encoding="utf-8") as fh:
        try:
            yield fh
        except BaseException:
            fh.close()
            os.remove(path)
            raise
