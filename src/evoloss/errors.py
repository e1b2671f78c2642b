"""Exception types shared across the package.

The split matters for the command line interface: validation problems
(bad files, bad shapes, bad config values) exit with code 2, while
degenerate game inputs (zero denominators, fixed points outside the
unit square) exit with code 3.
"""

import math
import numbers
from contextlib import contextmanager

import numpy as np


class EvolossError(Exception):
    """Base class for all package errors."""


class ValidationError(EvolossError, ValueError):
    """Malformed input: bad values, shapes, files, or configuration."""


class NotFiniteError(ValidationError):
    """A real number that is NaN, infinite or too large for a float."""


def _shown(value) -> str:
    """str(value), or a note when value is an int too long to print."""
    try:
        return str(value)
    except ValueError:
        return "an int too long to print"


def as_int(name: str, value, minimum: int | None = None) -> int:
    """value as an int; ValidationError unless it is a finite whole number
    of at least minimum (when given), reported as "name must be positive"
    for a minimum of 1, "nonnegative" for 0 and "at least k" otherwise."""
    try:
        integral = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be an integer, got {value}") from None
    if integral != value:
        raise ValidationError(f"{name} must be an integer, got {value}")
    if minimum is not None and integral < minimum:
        bound = {0: "nonnegative", 1: "positive"}.get(minimum, f"at least {minimum}")
        raise ValidationError(f"{name} must be {bound}, got {_shown(integral)}")
    return integral


# the rules as_float checks beyond "finite", each a test of a finite float
_RULES = {
    "positive": lambda v: v > 0.0,
    "nonnegative": lambda v: v >= 0.0,
    "a percent in [0, 100]": lambda v: 0.0 <= v <= 100.0,
}


def as_float(name: str, value, rule: str = "finite") -> float:
    """value as a float; ValidationError unless it is a real number that
    obeys rule: "finite", "positive", "nonnegative" or "a percent in
    [0, 100]", each of which implies finite.  A real value that breaks
    the rule is reported as "name must be rule, got value"."""
    # refused here, since numpy before 2.4 reads a one-entry array as its entry
    if isinstance(value, np.ndarray) and value.ndim:
        raise ValidationError(f"{name} must be a real number, got an array of shape {value.shape}")
    try:
        # math.isfinite would take a numpy complex scalar's real part
        if isinstance(value, numbers.Complex) and not isinstance(value, numbers.Real):
            raise TypeError
        finite = math.isfinite(value)
    except TypeError:
        raise ValidationError(f"{name} must be a real number, got {value!r}") from None
    except ValueError:  # a Decimal signaling NaN, which has no float
        raise NotFiniteError(f"{name} must be {rule}, got {value}") from None
    except OverflowError:  # an int or Fraction too large for a float, maybe too long to print
        raise NotFiniteError(f"{name} must be {rule}, got a number too large for a float") from None
    if not finite:
        raise NotFiniteError(f"{name} must be {rule}, got {value}")
    number = float(value)
    if rule != "finite" and not _RULES[rule](number):
        raise ValidationError(f"{name} must be {rule}, got {number}")
    return number


def as_array(name: str, value, shape: tuple | None) -> np.ndarray:
    """value as a float64 array of the given shape, a size per axis with
    None for any size, or of any shape when shape is None; ValidationError
    unless it is a rectangular array of bool, int, uint or float entries,
    and NotFiniteError unless every entry is finite.  A float64 array is
    returned as it is, not copied."""
    try:
        array = np.asarray(value)
    except (TypeError, ValueError):  # a ragged nesting, for one
        raise ValidationError(f"{name} must be a rectangular array of real numbers") from None
    if array.dtype.kind not in "biuf":
        raise ValidationError(f"{name} must be an array of real numbers, got dtype {array.dtype}")
    if shape is not None and (
        array.ndim != len(shape) or any(n not in (None, k) for n, k in zip(shape, array.shape))
    ):
        wanted = str(tuple(shape)).replace("None", "any")
        raise ValidationError(f"{name} must have shape {wanted}, got {array.shape}")
    # a long double beyond the float64 range becomes inf, reported below
    with np.errstate(over="ignore"):
        array = array.astype(np.float64, copy=False)
    finite = np.isfinite(array)
    if not finite.all():
        raise NotFiniteError(f"{name} must be finite, got {array[~finite][0]}")
    return array


def as_instance(name: str, value, cls: type):
    """value itself; ValidationError unless it is an instance of cls."""
    if not isinstance(value, cls):
        raise ValidationError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


@contextmanager
def raising(name: str):
    """The block under the training loop's errstate, where an overflow, an
    invalid operation or a division by zero raises "name diverged: ..."."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise ValidationError(f"{name} diverged: {exc}") from None


class BenchmarkParseError(ValidationError):
    """A benchmark CSV could not be parsed.

    Carries the 1-based line number of the offending row when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MissingRecordError(EvolossError, LookupError):
    """A (method, pretrain, eval) accuracy triple is absent from a table."""


class DegenerateGameError(EvolossError):
    """A payoff configuration with no well-defined interior fixed point."""


class OutOfSimplexError(EvolossError):
    """The interior fixed point falls outside the unit square.

    The raw coordinates are kept so callers can report them.
    """

    def __init__(self, x, y):
        super().__init__(
            f"interior fixed point ({x:.6g}, {y:.6g}) lies outside [0, 1]^2"
        )
        self.x = x
        self.y = y


class NormalizationError(ValidationError):
    """A feature row has zero norm and cannot be cosine-normalized."""


class DegenerateFeatureError(ValidationError):
    """A feature column has zero variance across the batch."""
