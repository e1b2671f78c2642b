"""Fixed points of the replicator field and their linear stability."""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGameError, OutOfSimplexError, ValidationError
from .game import (
    CORNERS,
    ZERO_TOL,
    PopulationState,
    check_state,
    field_coefficients,
    field_scale,
    replicator_rhs,
    saddle_point,
)
from .metrics import PayoffParams


#: The columns of the equilibria table and CSV.
EQUILIBRIA_COLUMNS = ("x", "y", "det", "trace", "class")


class StabilityClass(enum.Enum):
    UNSTABLE_POINT = "unstable"
    STABLE_POINT = "stable"
    SADDLE_POINT = "saddle"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class Equilibrium:
    point: PopulationState
    det: float
    trace: float
    cls: StabilityClass


def jacobian(p: PayoffParams, state) -> np.ndarray:
    """Jacobian of the replicator field at a state (not necessarily a
    fixed point)."""
    x, y = check_state(state)
    a, b, c, e = field_coefficients(p)
    return np.array(
        [
            [(1.0 - 2.0 * x) * (a - b * y), -x * (1.0 - x) * b],
            [-y * (1.0 - y) * e, (1.0 - 2.0 * y) * (c - e * x)],
        ]
    )


def classify(p: PayoffParams, point) -> Equilibrium:
    """Classify a fixed point by the determinant/trace of its Jacobian.

    det < 0 is a saddle regardless of trace; det > 0 splits into stable
    (negative trace) and unstable (positive trace); a det within ZERO_TOL
    * s**2 or a trace within ZERO_TOL * s of its sign boundary is reported
    as degenerate, s being game.field_scale, so that a common payoff
    factor changes no class.  Raises ValidationError when the field at
    point exceeds ZERO_TOL * s, as the rounding of a - b * y and c - e * x
    grows with the coefficients, and when det or trace overflows.  A
    ZERO_TOL * s**2 that overflows exceeds every finite det, which is then
    within it.
    """
    point = check_state(point)
    dx, dy = replicator_rhs(p, point)
    scale = field_scale(field_coefficients(p))
    tol = ZERO_TOL * scale
    if abs(dx) > tol or abs(dy) > tol:
        raise ValidationError(
            f"point {tuple(point)} is not a fixed point: field = ({dx:.3g}, {dy:.3g})"
        )
    j = jacobian(p, point)
    with np.errstate(over="ignore", invalid="ignore"):
        det = float(np.linalg.det(j))
        trace = float(np.trace(j))
    if not (math.isfinite(det) and math.isfinite(trace)):
        raise ValidationError(f"Jacobian at {tuple(point)} overflows: det {det}, trace {trace}")
    det_tol = tol * scale
    if det < -det_tol:
        cls = StabilityClass.SADDLE_POINT
    elif det > det_tol and trace > tol:
        cls = StabilityClass.UNSTABLE_POINT
    elif det > det_tol and trace < -tol:
        cls = StabilityClass.STABLE_POINT
    else:
        cls = StabilityClass.DEGENERATE
    return Equilibrium(point, det, trace, cls)


def enumerate_equilibria(p: PayoffParams) -> list[Equilibrium]:
    """All fixed points of the field: the four corners, plus the interior
    point when it exists and lies inside the unit square."""
    points = list(CORNERS)
    try:
        points.append(saddle_point(p))
    except (DegenerateGameError, OutOfSimplexError):
        pass
    return [classify(p, point) for point in points]


def equilibria_table(equilibria: list[Equilibrium]) -> str:
    """Render equilibria as an aligned text table."""
    rows = [EQUILIBRIA_COLUMNS] + [
        (
            f"{eq.point.x:.6f}",
            f"{eq.point.y:.6f}",
            f"{eq.det:.6f}",
            f"{eq.trace:.6f}",
            eq.cls.value,
        )
        for eq in equilibria
    ]
    widths = [max(len(v) for v in column) for column in zip(*rows)]
    return "\n".join("  ".join(v.rjust(w) for v, w in zip(r, widths)) for r in rows)


def write_equilibria_csv(equilibria: list[Equilibrium], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EQUILIBRIA_COLUMNS)
        for eq in equilibria:
            writer.writerow(
                [repr(eq.point.x), repr(eq.point.y), repr(eq.det), repr(eq.trace), eq.cls.value]
            )
