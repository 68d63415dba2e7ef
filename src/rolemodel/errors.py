"""Exception types shared across the package.

Every error raised deliberately by this package derives from
RoleModelError, so callers can catch one base class. The subclasses
split along the boundaries callers actually branch on: bad shapes,
bad probability values, undefined conditionals, violated structural
preconditions, exhausted iteration budgets, and malformed files. Text
files follow one rule: ``open_text`` and ``_lines`` read UTF-8 lines,
non-blank, stripped of ASCII whitespace only; ``_key_value`` splits
``key = value`` lines; ``_one_line`` says whether a value written on
such a line reads back unchanged; ``create_text`` writes what a failure
removes.
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
    """A scenario, estimator, sample or trace file failed to parse.

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


# what str.strip() removes from ASCII text; a line or field stripped of
# these alone keeps any other padding for the ASCII checks to refuse
_ASCII_SPACE = "".join(c for c in map(chr, range(128)) if c.isspace())


def _ascii_int(text: str) -> int:
    """The integer a field spells in ASCII digits, surrounding ASCII
    whitespace stripped. int() alone also takes a sign, '_' between digits
    and other scripts' digits; str.isdigit alone takes superscripts."""
    text = text.strip(_ASCII_SPACE)
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{text!r} is not a nonnegative integer in ASCII digits")
    return int(text)


def _ascii_float(text: str) -> float:
    """float(text) for ASCII text without '_', which float() alone takes."""
    if "_" in text or not text.isascii():
        raise ValueError(f"{text!r} is not a number in ASCII without '_'")
    return float(text)


def _lines(lines, start: int = 1):
    """(line number from ``start``, line stripped of ASCII whitespace) for
    each non-blank line of an open text file or a list of lines."""
    for lineno, raw in enumerate(lines, start):
        line = raw.strip(_ASCII_SPACE)
        if line:
            yield lineno, line


def _one_line(text: str) -> bool:
    """Whether text, written as the value of a ``key = value`` line,
    survives the reader's ASCII strip unchanged and stays on one line."""
    return text == text.strip(_ASCII_SPACE) and "\n" not in text and "\r" not in text


def _key_value(line: str, seen, path, lineno: int) -> tuple:
    """(key, value) of a ``key = value`` line, both stripped of ASCII
    whitespace. A line without '=', an empty key, or a key already in
    ``seen`` raises SpecFormatError naming path:lineno."""
    key, eq, value = line.partition("=")
    key = key.strip(_ASCII_SPACE)
    if not eq:
        raise SpecFormatError(f"{path}:{lineno}: expected key = value")
    if not key:
        raise SpecFormatError(f"{path}:{lineno}: empty key")
    if key in seen:
        raise SpecFormatError(f"{path}:{lineno}: duplicate key {key!r}")
    return key, value.strip(_ASCII_SPACE)
