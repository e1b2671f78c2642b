"""Time integration of the replicator field on the unit square."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ValidationError
from .game import CORNERS, PopulationState, check_state, field_coefficients
from .metrics import PayoffParams


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = 0.01
    t_max: float = 500.0
    stop_tol: float = 1e-3
    clamp_tol: float = 1e-9

    def __post_init__(self):
        for name in ("dt", "t_max", "stop_tol", "clamp_tol"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if self.dt <= 0.0:
            raise ValidationError(f"dt must be positive, got {self.dt}")
        if self.t_max < self.dt:
            raise ValidationError(
                f"t_max ({self.t_max}) must be at least dt ({self.dt})"
            )
        if self.stop_tol <= 0.0:
            raise ValidationError(f"stop_tol must be positive, got {self.stop_tol}")
        if self.clamp_tol < 0.0:
            raise ValidationError(f"clamp_tol must be nonnegative, got {self.clamp_tol}")


@dataclass(frozen=True)
class Trajectory:
    """Recorded path of one integration run.

    converged_to is the corner whose stop_tol-ball the path entered, or
    None when the horizon was reached first.
    """

    times: np.ndarray
    states: np.ndarray
    converged_to: PopulationState | None

    def __post_init__(self):
        if self.times.ndim != 1 or self.states.shape != (len(self.times), 2):
            raise ValidationError("trajectory arrays have inconsistent shapes")

    @property
    def final_state(self) -> PopulationState:
        return PopulationState(float(self.states[-1, 0]), float(self.states[-1, 1]))


def step_rk4(p: PayoffParams, state, dt: float) -> PopulationState:
    """One classical RK4 step.

    The result is clamped onto the unit square when it overshoots by
    less than the default clamp tolerance; a larger overshoot rejects
    the attempt and retries at half the step, so the time actually
    advanced may be dt / 2**k.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValidationError(f"dt must be positive, got {dt}")
    x, y = check_state(state)
    a, b, c, e = field_coefficients(p)
    x, y, _ = _kernels.rk4_step(a, b, c, e, x, y, dt, IntegratorConfig.clamp_tol)
    return PopulationState(x, y)


def simulate(p: PayoffParams, start, cfg: IntegratorConfig | None = None) -> Trajectory:
    """Integrate from start until the path enters the stop_tol-ball of a
    corner or t_max is reached, recording every accepted step."""
    cfg = cfg or IntegratorConfig()
    x0, y0 = check_state(start)
    a, b, c, e = field_coefficients(p)
    ts, xs, ys, terminal = _kernels.rk4_path(
        a, b, c, e, x0, y0, cfg.dt, cfg.t_max, cfg.stop_tol, cfg.clamp_tol
    )
    converged_to = CORNERS[terminal] if terminal >= 0 else None
    return Trajectory(np.asarray(ts), np.column_stack((xs, ys)), converged_to)


def phase_portrait(
    p: PayoffParams, starts, cfg: IntegratorConfig | None = None
) -> list[Trajectory]:
    starts = [check_state(s) for s in starts]
    if not starts:
        raise ValidationError("phase_portrait needs at least one start state")
    return [simulate(p, s, cfg) for s in starts]


def sample_starts(n: int, rng: np.random.Generator) -> list[PopulationState]:
    """n uniform random interior start states."""
    if n < 1:
        raise ValidationError(f"need at least one start, got {n}")
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    return [PopulationState(float(px), float(py)) for px, py in pts]


def write_trajectories_csv(trajectories: list[Trajectory], path) -> None:
    """Long-format CSV: one row per recorded sample."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["trajectory_id", "t", "x", "y"])
        for tid, traj in enumerate(trajectories):
            for t, (x, y) in zip(traj.times, traj.states):
                writer.writerow([tid, repr(float(t)), repr(float(x)), repr(float(y))])
