"""Exception types shared across the package.

The split matters for the command line interface: validation problems
(bad files, bad shapes, bad config values) exit with code 2, while
degenerate game inputs (zero denominators, fixed points outside the
unit square) exit with code 3.
"""

import math
import numbers


class EvolossError(Exception):
    """Base class for all package errors."""


class ValidationError(EvolossError, ValueError):
    """Malformed input: bad values, shapes, files, or configuration."""


class NotFiniteError(ValidationError):
    """A real number that is NaN, infinite or too large for a float."""


def as_int(name: str, value) -> int:
    """value as an int; ValidationError unless it is a finite whole number."""
    try:
        integral = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be an integer, got {value}") from None
    if integral != value:
        raise ValidationError(f"{name} must be an integer, got {value}")
    return integral


def as_float(name: str, value, rule: str = "finite") -> float:
    """value as a float; ValidationError unless it is a finite real number,
    reported as "name must be rule" when it is real but not finite."""
    try:
        # math.isfinite would take a numpy complex scalar's real part
        if isinstance(value, numbers.Complex) and not isinstance(value, numbers.Real):
            raise TypeError
        finite = math.isfinite(value)
    except TypeError:
        raise ValidationError(f"{name} must be a real number, got {value!r}") from None
    except OverflowError:  # an int too large for a float, maybe too long to print
        raise NotFiniteError(f"{name} must be {rule}, got an int too large for a float") from None
    if not finite:
        raise NotFiniteError(f"{name} must be {rule}, got {value}")
    return float(value)


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
