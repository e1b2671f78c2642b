"""Time integration of the replicator field on the unit square."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ValidationError, as_float, as_int
from .game import CORNERS, PopulationState, check_state, field_coefficients
from .kvfile import repr_fields, write_rows
from .metrics import PayoffParams


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = 0.01
    t_max: float = 500.0
    stop_tol: float = 1e-3

    def __post_init__(self):
        for name, rule in (("dt", "positive"), ("t_max", "finite"), ("stop_tol", "positive")):
            object.__setattr__(self, name, as_float(name, getattr(self, name), rule))
        if self.t_max < self.dt:
            raise ValidationError(
                f"t_max ({self.t_max}) must be at least dt ({self.dt})"
            )
        if not math.isfinite(self.t_max / self.dt):
            raise ValidationError(f"t_max / dt must be finite, got {self.t_max} / {self.dt}")


#: Why a trajectory stopped: it entered a corner's stop_tol-ball, it
#: reached t_max, or it used up its sample budget (_kernels._path_rules).
STOP_REASONS = ("corner", "horizon", "budget")


@dataclass(frozen=True)
class Trajectory:
    """Recorded path of one integration run.

    converged_to is the corner whose stop_tol-ball the path entered, or
    None when it stopped first; reason is one of STOP_REASONS.  The
    trajectories of one phase_portrait call may share one read-only
    times array, so copy times before writing into it.
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


def simulate(p: PayoffParams, start, cfg: IntegratorConfig | None = None) -> Trajectory:
    """Integrate from start until the path enters the stop_tol-ball of a
    corner or t_max is reached, recording every accepted step; raises
    ValidationError when a step's result is NaN."""
    cfg = cfg or IntegratorConfig()
    x0, y0 = check_state(start)
    a, b, c, e = field_coefficients(p)
    ts, xs, ys, terminal = _kernels.rk4_path(a, b, c, e, x0, y0, cfg.dt, cfg.t_max, cfg.stop_tol)
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
    try:
        starts = [check_state(s) for s in starts]
    except TypeError:  # check_state raises ValidationError, so starts is not iterable
        raise ValidationError(f"starts must be an iterable of states, got {starts!r}") from None
    if not starts:
        raise ValidationError("phase_portrait needs at least one start state")
    cfg = cfg or IntegratorConfig()
    a, b, c, e = field_coefficients(p)
    paths = _kernels.rk4_paths(
        a, b, c, e, [s.x for s in starts], [s.y for s in starts],
        cfg.dt, cfg.t_max, cfg.stop_tol,
    )
    return [_trajectory(*path) for path in paths]


def sample_starts(n: int, rng: np.random.Generator) -> list[PopulationState]:
    """n uniform random interior start states."""
    pts = rng.uniform(0.0, 1.0, size=(as_int("n", n, 1), 2))
    return [PopulationState(float(px), float(py)) for px, py in pts]


def write_trajectories_csv(trajectories: list[Trajectory], path) -> None:
    """Long-format CSV, one row per sample; reprs need no quoting, so the
    bytes are those of csv.writer.  Rows are written in blocks of
    kvfile.BLOCK_ROWS, formatted a column at a time.

    Paths that took the same steps share their times, so the longest
    path's times are formatted once and a path whose times are a prefix
    of them, byte for byte (0.0 == -0.0 but their reprs differ), reuses
    those strings.  Only the longest path reads past the second longest
    one's length, so those strings are made per block.
    """
    by_length = sorted((traj.times for traj in trajectories), key=len)
    longest = by_length[-1] if by_length else np.empty(0)
    shared_bytes = longest.tobytes()
    second = len(by_length[-2]) if len(by_length) > 1 else 0
    shared = [f",{t!r}," for t in longest[:second].tolist()]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("trajectory_id,t,x,y\n")
        for tid, traj in enumerate(trajectories):
            own = shared if shared_bytes.startswith(traj.times.tobytes()) else []
            write_rows(fh, len(traj.times), [
                str(tid), _time_fields(traj.times, own),
                repr_fields(traj.states[:, 0]), ",", repr_fields(traj.states[:, 1]), "\n",
            ])


def _time_fields(times, shared):
    """The ",t," parts of write_rows for times, those of its first
    len(shared) rows taken from shared."""
    def fields(lo, hi):
        cut = min(max(len(shared), lo), hi)
        return shared[lo:cut] + [f",{t!r}," for t in times[cut:hi].tolist()]
    return fields
