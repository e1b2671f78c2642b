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
    (negative trace) and unstable (positive trace); anything within
    ZERO_TOL of the sign boundaries is reported as degenerate.  Raises
    ValidationError when det or trace overflows.
    """
    point = check_state(point)
    dx, dy = replicator_rhs(p, point)
    if abs(dx) > ZERO_TOL or abs(dy) > ZERO_TOL:
        raise ValidationError(
            f"point {tuple(point)} is not a fixed point: field = ({dx:.3g}, {dy:.3g})"
        )
    j = jacobian(p, point)
    with np.errstate(over="ignore", invalid="ignore"):
        det = float(np.linalg.det(j))
        trace = float(np.trace(j))
    if not (math.isfinite(det) and math.isfinite(trace)):
        raise ValidationError(f"Jacobian at {tuple(point)} overflows: det {det}, trace {trace}")
    if det < -ZERO_TOL:
        cls = StabilityClass.SADDLE_POINT
    elif det > ZERO_TOL and trace > ZERO_TOL:
        cls = StabilityClass.UNSTABLE_POINT
    elif det > ZERO_TOL and trace < -ZERO_TOL:
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
