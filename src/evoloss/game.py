"""Two-player asymmetric game between a generalizability-oriented model
and a discriminability-oriented one, and its replicator dynamics.

Population state is a point (x, y) in the unit square: y is the share
of the first (generalizability) population playing "cooperate"
(contribute its strength to the ensemble), x the same for the second
(discriminability) population.  dy/dt is y times the generalizability
player's income advantage of cooperating, and dx/dt is x times the
discriminability player's.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (
    DegenerateGameError,
    NotFiniteError,
    OutOfSimplexError,
    ValidationError,
    _shown,
    as_float,
)
from .metrics import PayoffParams

#: Magnitudes below this, relative to the field's scale (field_scale),
#: are treated as exact zeros in fixed-point and stability logic.
ZERO_TOL = 1e-9


class PopulationState(NamedTuple):
    x: float
    y: float


#: The four pure-strategy corners of the unit square, the states a
#: trajectory can converge to (the interior fixed point is a watershed
#: between basins, never a stopping target).  The path kernel reports a
#: stop by its index into this tuple.
CORNERS = (
    PopulationState(0.0, 0.0),
    PopulationState(0.0, 1.0),
    PopulationState(1.0, 0.0),
    PopulationState(1.0, 1.0),
)


def check_state(state) -> PopulationState:
    """Validate that state is a finite point of the unit square."""
    try:
        x, y = state
        point = PopulationState(as_float("x", x), as_float("y", y))
    except NotFiniteError:
        raise ValidationError(f"state must be finite, got ({_shown(x)}, {_shown(y)})") from None
    except (TypeError, ValueError):  # not a pair, or not a pair of reals
        raise ValidationError(f"state must be a pair of real numbers, got {state!r}") from None
    if not (0.0 <= point.x <= 1.0 and 0.0 <= point.y <= 1.0):
        raise ValidationError(f"state ({x}, {y}) outside the unit square")
    return point


def field_coefficients(p: PayoffParams) -> tuple[float, float, float, float]:
    """Constants (a, b, c, e) of the replicator field.

    dx/dt = x (1 - x) (a - b y)      dy/dt = y (1 - y) (c - e x)

    Raises ValidationError when one of them overflows.
    """
    a = p.g2 + p.w2 * p.d2
    b = p.w2 * p.d1 + p.g2 + p.n2 + p.w2 * p.n1
    c = p.w1 * p.g1 + p.d1
    e = p.d1 + p.w1 * p.g2 + p.w1 * p.n2 + p.n1
    for name, value in zip("abce", (a, b, c, e)):
        if not math.isfinite(value):
            raise ValidationError(f"field coefficient {name} is not finite: {value}")
    return a, b, c, e


def field_scale(coefficients) -> float:
    """The field's own scale s = max(|a|, |b|, |c|, |e|) of its
    coefficients.  A common payoff factor multiplies the field by the
    same factor, which changes only its time scale, so every zero test
    compares a quantity of the field's degree in s against ZERO_TOL times
    that power of s, and the factor changes no answer.  s is 0 only for
    the all-zero field, where every such test finds a zero."""
    return max(map(abs, coefficients))


def replicator_rhs(p: PayoffParams, state) -> tuple[float, float]:
    """Time derivative (dx/dt, dy/dt) of the cooperation shares."""
    x, y = check_state(state)
    a, b, c, e = field_coefficients(p)
    return x * (1.0 - x) * (a - b * y), y * (1.0 - y) * (c - e * x)


def saddle_point(p: PayoffParams) -> PopulationState:
    """The interior fixed point (x*, y*) of the replicator field.

    Raises DegenerateGameError when a defining denominator is within
    ZERO_TOL of zero, relative to field_scale, and OutOfSimplexError when
    the point falls outside the unit square.
    """
    a, b, c, e = field_coefficients(p)
    tol = ZERO_TOL * field_scale((a, b, c, e))
    if abs(e) <= tol or abs(b) <= tol:
        raise DegenerateGameError(
            "interior fixed point undefined: zero denominator in (x*, y*)"
        )
    x_star = c / e
    y_star = a / b
    if not (0.0 <= x_star <= 1.0 and 0.0 <= y_star <= 1.0):
        raise OutOfSimplexError(x_star, y_star)
    return PopulationState(x_star, y_star)
