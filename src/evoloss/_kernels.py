"""Inner integration loops for the replicator field.

The field is dx/dt = x(1-x)(a - b y), dy/dt = y(1-y)(c - e x); the
functions take the four precomputed coefficients so they stay
independent of the dataclasses in the rest of the package.  They are
plain Python over floats, except rk4_paths, which takes the ordinary
steps of many starts at once over numpy arrays, on one shared clock, and
hands any other step to the scalar loop; evobench/README.md describes
how their cost is measured.  The tests' forward-Euler reference is in
tests/helpers.py.
"""

from __future__ import annotations

from array import array

import numpy as np

from .game import CORNERS

#: There is one interpreted backend; evobench/run.py reports this flag
#: in its environment line.
JIT_ENABLED = False


#: Terminal codes besides a corner index: the horizon t_max was reached,
#: the sample budget ran out first, or a step's result was NaN.
TERM_HORIZON = -1
TERM_BUDGET = -2
TERM_DIVERGED = -3

#: How far an RK4 attempt may overshoot the unit square and still be
#: taken, clamped onto it; a larger overshoot halves the step.
CLAMP_TOL = 1e-9

#: States per lane that rk4_paths holds before flushing them into the
#: lane's pieces.  A buffer for every step of every lane would cost more
#: memory than the finished trajectories.  On the 400 grid starts of
#: evobench's basin_sweep (seeds 1, 5, 51), the sweep's peak RSS stays
#: within 0.1 MB of its finished trajectories with 64, 128 or 256; 64
#: leaves 0.5 MB more in small pieces, and the three run at one speed.
_CHUNK = 128


def rk4_attempt(a, b, c, e, x, y, h):
    """The four RK4 stages of one attempt of size h from (x, y), unclamped.

    Works alike on floats and on numpy arrays: every operation is an
    elementwise IEEE one, so an array lane rounds exactly as the float
    computation from the same inputs.
    """
    # x + 0.5 * h * f evaluates as x + (0.5 * h) * f, so taking the
    # factors once changes no rounding
    half = 0.5 * h
    sixth = h / 6.0
    f1x = x * (1.0 - x) * (a - b * y)
    f1y = y * (1.0 - y) * (c - e * x)
    x2 = x + half * f1x
    y2 = y + half * f1y
    f2x = x2 * (1.0 - x2) * (a - b * y2)
    f2y = y2 * (1.0 - y2) * (c - e * x2)
    x3 = x + half * f2x
    y3 = y + half * f2y
    f3x = x3 * (1.0 - x3) * (a - b * y3)
    f3y = y3 * (1.0 - y3) * (c - e * x3)
    x4 = x + h * f3x
    y4 = y + h * f3y
    f4x = x4 * (1.0 - x4) * (a - b * y4)
    f4y = y4 * (1.0 - y4) * (c - e * x4)
    xn = x + sixth * (f1x + 2.0 * f2x + 2.0 * f3x + f4x)
    yn = y + sixth * (f1y + 2.0 * f2y + 2.0 * f3y + f4y)
    return xn, yn


def rk4_step(a, b, c, e, x, y, h):
    """One classical RK4 step of size h from (x, y).

    An attempt whose result overshoots the unit square by more than
    CLAMP_TOL is rejected and retried at half the step.  Returns
    (x, y, h): the result clamped onto the square and h as the loop
    leaves it, which is the step taken, except that after 64 rejected
    attempts the last one is kept and h has been halved once more.
    """
    for _ in range(64):
        xn, yn = rk4_attempt(a, b, c, e, x, y, h)
        if -CLAMP_TOL <= xn <= 1.0 + CLAMP_TOL and -CLAMP_TOL <= yn <= 1.0 + CLAMP_TOL:
            break
        h *= 0.5
    return min(max(xn, 0.0), 1.0), min(max(yn, 0.0), 1.0), h


#: Fewest lanes for which a batched step of rk4_paths beats one rk4_path
#: step per lane: on the fixture game a batched step costs 60-95 us from
#: 8 to 400 lanes, a scalar step 2.3-2.6 us.  rk4_paths hands its lanes
#: to the scalar loop once fewer than this are left, so fewer starts run
#: in that loop from their first sample.  Batched over per-start time
#: (uniform starts, seeds 1-3, best of 9, interleaved):
#:
#:   starts               16       24       32       40       48       64       96
#:   batched throughout   2.2-2.9  1.4-1.6  1.2-1.6  1.0-1.2  0.8-1.0  0.6-0.8  0.5-0.6
#:   hand-off below 32    0.8-1.0  0.9-1.1  0.9-1.0  0.7      0.5-0.7  0.5      0.4
BATCH_MIN_LANES = 32


def _stop_test(stop_tol):
    """(corners, tol2, box) of the corner stop test; rk4_paths uses box.

    A point stops at the first of the (index, corner) pairs with
    (x - cx) ** 2 + (y - cy) ** 2 <= tol2, as _corner_hit computes it;
    none when stopping is off.  Any such point has min(x, 1 - x) <= box
    and min(y, 1 - y) <= box, so only points in that box are tested:
    1 - x is exact for x >= 0.5 (Sterbenz), a sum of nonnegative floats
    is at least each term, and box allows for an ulp of pow() rounding,
    relative, or absolute where the squares underflow: a distance below
    about 1.6e-162 squares to 0, which is within any stop_tol.
    """
    corners = tuple(enumerate(CORNERS)) if stop_tol >= 0.0 else ()
    return corners, stop_tol * stop_tol, stop_tol * (1.0 + 1e-9) + 1e-150


def _corner_hit(x, y, corners, tol2):
    """Index of the first of the (index, corner) pairs within sqrt(tol2)
    of the float point (x, y), or TERM_HORIZON when there is none."""
    for k, (cx, cy) in corners:
        if (x - cx) ** 2 + (y - cy) ** 2 <= tol2:
            return k
    return TERM_HORIZON


def _rk4_run(a, b, c, e, t, x, y, n, dt, t_max, stop_tol, ts, xs, ys):
    """The loop of rk4_path, from a path's n-th sample (t, x, y), which
    the caller has recorded: tests it for a stop, then steps and appends
    each further sample to the buffers ts, xs, ys.  Returns the terminal
    code."""
    n_max = 2 * int(t_max / dt) + 16
    corners, tol2, box = _stop_test(stop_tol)
    t_end = t_max - 1e-12
    while True:
        if (x <= box or 1.0 - x <= box) and (y <= box or 1.0 - y <= box):
            terminal = _corner_hit(x, y, corners, tol2)
            if terminal != TERM_HORIZON:
                return terminal
        if t >= t_end:
            return TERM_HORIZON
        if n >= n_max:
            return TERM_BUDGET
        h = dt
        if t + h > t_max:
            h = t_max - t
        xn, yn = rk4_attempt(a, b, c, e, x, y, h)
        # rk4_step would take an attempt inside the square as it is, -0.0
        # included; NaN fails both tests and takes the checked path, which
        # recomputes this attempt and ends the path if it stays NaN
        if 0.0 <= xn <= 1.0 and 0.0 <= yn <= 1.0:
            x, y = xn, yn
        else:
            x, y, h = rk4_step(a, b, c, e, x, y, h)
            if x != x or y != y:
                return TERM_DIVERGED
        t += h
        ts.append(t)
        xs.append(x)
        ys.append(y)
        n += 1


def rk4_path(a, b, c, e, x0, y0, dt, t_max, stop_tol):
    """Integrate with fixed-step RK4, recording every accepted step.

    Stops once the state comes within stop_tol (Euclidean) of a unit
    square corner; pass a negative stop_tol to disable stopping.  Steps
    are taken by rk4_step; the last one is shortened to end at t_max.
    At most 2 * int(t_max / dt) + 16 samples are recorded; the buffers
    grow as the path does.

    Returns (times, xs, ys, terminal): the recorded samples, and
    terminal, the index into CORNERS of the corner reached, TERM_HORIZON
    when t_max was reached first, TERM_BUDGET when the sample budget
    ran out first, or TERM_DIVERGED when a step's result was NaN, which
    is not recorded.
    """
    # growable buffers of C doubles, 8 bytes a sample
    ts = array("d", (0.0,))
    xs = array("d", (x0,))
    ys = array("d", (y0,))
    terminal = _rk4_run(a, b, c, e, 0.0, x0, y0, 1, dt, t_max, stop_tol, ts, xs, ys)
    return np.array(ts), np.array(xs), np.array(ys), terminal


# a lane whose attempt overflows leaves the batch, so numpy need not warn
@np.errstate(over="ignore", invalid="ignore")
def rk4_paths(a, b, c, e, x0s, y0s, dt, t_max, stop_tol):
    """rk4_path from many starts at once, one numpy lane per start.

    The lanes take ordinary steps together, with the same elementwise
    arithmetic (rk4_attempt), so they share one clock.  A lane leaves
    the batch at a recorded sample in the box of _stop_test, or when its
    next attempt leaves the unit square or is NaN; every lane leaves at
    the horizon, once the budget is spent or once fewer than
    BATCH_MIN_LANES are left.  A lane that leaves runs on from that
    sample in the loop of rk4_path, which alone decides its stop and
    alone halves or clamps a step, so every lane is bit-identical to
    rk4_path.

    Returns one (times, states, terminal) per start, in start order,
    states being the (n, 2) array of recorded (x, y) samples.
    """
    lanes = len(x0s)
    n_max = 2 * int(t_max / dt) + 16
    box = _stop_test(stop_tol)[2]
    t_end = t_max - 1e-12
    # the start index of each working lane, also its row in buf
    lane = np.arange(lanes)
    t = 0.0
    clock = array("d")
    x = np.array(x0s, dtype=np.float64)
    y = np.array(y0s, dtype=np.float64)
    buf = np.empty((2, lanes, _CHUNK))
    pieces = [[] for _ in range(lanes)]
    # per start: the samples it recorded on the clock, and its later times
    tails = [None] * lanes
    terminal = [None] * lanes
    n = 0
    while True:
        col = n % _CHUNK
        clock.append(t)
        buf[0, lane, col] = x
        buf[1, lane, col] = y
        n += 1
        leave = range(len(lane))  # all of them, unless the batch steps on
        if n < n_max and t < t_end and len(lane) >= BATCH_MIN_LANES:
            h = t_max - t if t + dt > t_max else dt  # as in _rk4_run
            xn, yn = rk4_attempt(a, b, c, e, x, y, h)
            # NaN fails the last two tests
            stay = (
                ((np.minimum(x, 1.0 - x) > box) | (np.minimum(y, 1.0 - y) > box))
                & (np.minimum(xn, yn) >= 0.0) & (np.maximum(xn, yn) <= 1.0)
            )
            leave = np.flatnonzero(~stay).tolist()
        for i in leave:
            r = lane[i]
            pieces[r].append(buf[:, r, : col + 1].copy())
            ts, xs, ys = array("d"), array("d"), array("d")
            terminal[r] = _rk4_run(
                a, b, c, e, t, float(x[i]), float(y[i]), n, dt, t_max, stop_tol, ts, xs, ys
            )
            tails[r] = (n, ts)
            if xs:
                pieces[r].append(np.array((xs, ys)))
        if len(leave) == len(lane):
            break
        t += h
        x, y = xn, yn
        if leave:
            lane, x, y = lane[stay], x[stay], y[stay]
        if col == _CHUNK - 1:
            for r in lane:
                pieces[r].append(buf[:, r].copy())
    del buf  # returned to the OS before the pieces are joined
    clock = np.array(clock)
    paths = []
    for r in range(lanes):
        (n, ts), chunks = tails[r], pieces[r]
        tails[r] = pieces[r] = None
        paths.append((
            np.concatenate((clock[:n], ts)), np.concatenate([p.T for p in chunks]), terminal[r]
        ))
    return paths
