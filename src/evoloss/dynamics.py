"""Time integration of the replicator field on the unit square."""

from __future__ import annotations

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


#: Why a trajectory stopped: it entered a corner's stop_tol-ball, it
#: reached t_max, or it used up its sample budget of 2 * int(t_max / dt) + 16.
STOP_REASONS = ("corner", "horizon", "budget")


@dataclass(frozen=True)
class Trajectory:
    """Recorded path of one integration run.

    converged_to is the corner whose stop_tol-ball the path entered, or
    None when it stopped first; reason is one of STOP_REASONS.
    """

    times: np.ndarray
    states: np.ndarray
    converged_to: PopulationState | None
    reason: str

    def __post_init__(self):
        # float64 throughout, so integer times are written as floats;
        # no copy is made of float64 arrays
        for name in ("times", "states"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if self.times.ndim != 1 or self.states.shape != (len(self.times), 2):
            raise ValidationError("trajectory arrays have inconsistent shapes")
        if self.reason not in STOP_REASONS or (
            (self.reason == "corner") != (self.converged_to is not None)
        ):
            raise ValidationError(
                f"stop reason {self.reason!r} does not fit converged_to {self.converged_to}"
            )

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
    corner or t_max is reached, recording every accepted step; raises
    ValidationError when a step's result is NaN."""
    cfg = cfg or IntegratorConfig()
    x0, y0 = check_state(start)
    a, b, c, e = field_coefficients(p)
    ts, xs, ys, terminal = _kernels.rk4_path(
        a, b, c, e, x0, y0, cfg.dt, cfg.t_max, cfg.stop_tol, cfg.clamp_tol
    )
    return _trajectory(ts, np.column_stack((xs, ys)), terminal)


def _trajectory(times, states, terminal) -> Trajectory:
    if terminal == _kernels.TERM_DIVERGED:
        x0, y0 = states[0].tolist()
        raise ValidationError(f"integration from ({x0!r}, {y0!r}) diverged at t = {times[-1]}")
    if terminal >= 0:
        return Trajectory(times, states, CORNERS[terminal], "corner")
    reason = "budget" if terminal == _kernels.TERM_BUDGET else "horizon"
    return Trajectory(times, states, None, reason)


def phase_portrait(
    p: PayoffParams, starts, cfg: IntegratorConfig | None = None
) -> list[Trajectory]:
    """simulate from every start, in order.

    Many starts are integrated together; the result is bit for bit that
    of a simulate call per start.
    """
    starts = [check_state(s) for s in starts]
    if not starts:
        raise ValidationError("phase_portrait needs at least one start state")
    cfg = cfg or IntegratorConfig()
    a, b, c, e = field_coefficients(p)
    paths = _kernels.rk4_paths(
        a, b, c, e, [s.x for s in starts], [s.y for s in starts],
        cfg.dt, cfg.t_max, cfg.stop_tol, cfg.clamp_tol,
    )
    return [_trajectory(*path) for path in paths]


def sample_starts(n: int, rng: np.random.Generator) -> list[PopulationState]:
    """n uniform random interior start states."""
    if n < 1:
        raise ValidationError(f"need at least one start, got {n}")
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    return [PopulationState(float(px), float(py)) for px, py in pts]


def write_trajectories_csv(trajectories: list[Trajectory], path) -> None:
    """Long-format CSV, one row per sample and one write per path; reprs need no quoting.

    Paths that took the same steps share their times, so the longest
    path's times are formatted once and a path whose times are a prefix
    of them, byte for byte (0.0 == -0.0 but their reprs differ), reuses
    those strings.
    """
    longest = max((traj.times for traj in trajectories), key=len, default=np.empty(0))
    shared_bytes = longest.tobytes()
    shared = list(map(repr, longest.tolist()))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("trajectory_id,t,x,y\n")
        for tid, traj in enumerate(trajectories):
            times = traj.times
            if shared_bytes.startswith(times.tobytes()):
                ts = shared[: len(times)]
            else:
                ts = map(repr, times.tolist())
            rows = zip(ts, traj.states.tolist())
            fh.write("".join([f"{tid},{t},{x!r},{y!r}\n" for t, (x, y) in rows]))
