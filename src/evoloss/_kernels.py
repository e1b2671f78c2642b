"""Inner integration loops for the replicator field.

The field is dx/dt = x(1-x)(a - b y), dy/dt = y(1-y)(c - e x); the
functions take the four precomputed coefficients so they stay
independent of the dataclasses in the rest of the package.  They are
plain Python over floats, except rk4_paths, which steps many starts at
once over numpy arrays with the same arithmetic; evobench/README.md
describes how their cost is measured.  The forward-Euler reference the
tests compare against lives with them, in tests/helpers.py.
"""

from __future__ import annotations

from array import array

import numpy as np

from .game import CORNERS

#: There is one interpreted backend; evobench/run.py reports this flag
#: in its environment line.
JIT_ENABLED = False


#: Terminal codes besides a corner index: the horizon t_max was reached,
#: or the sample budget ran out first.
TERM_HORIZON = -1
TERM_BUDGET = -2

#: Samples per lane that rk4_paths holds before flushing them into the
#: lane's pieces.  A buffer for every step of every lane would cost more
#: memory than the finished trajectories; on 400 fixture starts 128 adds
#: 1.0-1.2 MB to peak RSS, 256 adds 1.8 MB, at the same speed.
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


def rk4_step(a, b, c, e, x, y, h, clamp_tol):
    """One classical RK4 step of size h from (x, y).

    An attempt whose result overshoots the unit square by more than
    clamp_tol is rejected and retried at half the step.  Returns
    (x, y, h): the result clamped onto the square and h as the loop
    leaves it, which is the step taken, except that after 64 rejected
    attempts the last one is kept and h has been halved once more.
    """
    for _ in range(64):
        xn, yn = rk4_attempt(a, b, c, e, x, y, h)
        if (
            -clamp_tol <= xn <= 1.0 + clamp_tol
            and -clamp_tol <= yn <= 1.0 + clamp_tol
        ):
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
    """(corners, tol2, box) for the corner stop test of both kernels.

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


def _unclamped(clamp_tol):
    """(lo, hi): rk4_step accepts an attempt with both coordinates in
    [lo, hi] at once, and its clamps leave them as they are, -0.0
    included, so a caller may take such an attempt without rk4_step."""
    return max(0.0, -clamp_tol), min(1.0, 1.0 + clamp_tol)


def _corner_hit(x, y, corners, tol2):
    """Index of the first of the (index, corner) pairs within sqrt(tol2)
    of the float point (x, y), or TERM_HORIZON when there is none."""
    for k, (cx, cy) in corners:
        if (x - cx) ** 2 + (y - cy) ** 2 <= tol2:
            return k
    return TERM_HORIZON


def _rk4_run(a, b, c, e, t, x, y, n, dt, t_max, stop_tol, clamp_tol, ts, xs, ys):
    """The loop of rk4_path, from a path's n-th sample (t, x, y), which
    the caller has recorded: tests it for a stop, then steps and appends
    each further sample to the buffers ts, xs, ys.  Returns the terminal
    code."""
    n_max = 2 * int(t_max / dt) + 16
    corners, tol2, box = _stop_test(stop_tol)
    t_end = t_max - 1e-12
    lo, hi = _unclamped(clamp_tol)
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
        # NaN fails both tests and takes the checked path, which
        # recomputes this attempt
        if lo <= xn <= hi and lo <= yn <= hi:
            x, y = xn, yn
        else:
            x, y, h = rk4_step(a, b, c, e, x, y, h, clamp_tol)
        t += h
        ts.append(t)
        xs.append(x)
        ys.append(y)
        n += 1


def rk4_path(a, b, c, e, x0, y0, dt, t_max, stop_tol, clamp_tol):
    """Integrate with fixed-step RK4, recording every accepted step.

    Stops once the state comes within stop_tol (Euclidean) of a unit
    square corner; pass a negative stop_tol to disable stopping.  Steps
    are taken by rk4_step; the last one is shortened to end at t_max.
    At most 2 * int(t_max / dt) + 16 samples are recorded; the buffers
    grow as the path does.

    Returns (times, xs, ys, terminal): the recorded samples, and
    terminal, the index into CORNERS of the corner reached, TERM_HORIZON
    when t_max was reached first, or TERM_BUDGET when the sample budget
    ran out first.
    """
    # growable buffers of C doubles, 8 bytes a sample
    ts = array("d", (0.0,))
    xs = array("d", (x0,))
    ys = array("d", (y0,))
    terminal = _rk4_run(
        a, b, c, e, 0.0, x0, y0, 1, dt, t_max, stop_tol, clamp_tol, ts, xs, ys
    )
    return np.array(ts), np.array(xs), np.array(ys), terminal


def rk4_paths(a, b, c, e, x0s, y0s, dt, t_max, stop_tol, clamp_tol):
    """rk4_path from many starts at once, one numpy lane per start.

    Each lane makes the decisions rk4_path makes from its start: the
    shortened horizon step, the first corner in CORNERS order within
    stop_tol, and the same horizon and budget stops.  A step's attempts
    are computed for all lanes at once (rk4_attempt, the same elementwise
    arithmetic); a lane whose attempt cannot be taken as it is, because
    it leaves [lo, hi] of _unclamped or is NaN, goes alone through
    rk4_step, which halves and clamps it.  So every lane is bit-identical
    to rk4_path.  Finished lanes leave the working arrays, and once fewer
    than BATCH_MIN_LANES are left, each runs on in the loop of rk4_path.

    Returns one (times, states, terminal) per start, in start order,
    states being the (n, 2) array of recorded (x, y) samples.
    """
    lanes = len(x0s)
    n_max = 2 * int(t_max / dt) + 16
    corners, tol2, box = _stop_test(stop_tol)
    t_end = t_max - 1e-12
    lo, hi = _unclamped(clamp_tol)
    # the start index of each working lane, also its row in buf
    lane = np.arange(lanes)
    t = np.zeros(lanes)
    x = np.array(x0s, dtype=np.float64)
    y = np.array(y0s, dtype=np.float64)
    buf = np.empty((3, lanes, _CHUNK))
    pieces = [[] for _ in range(lanes)]
    terminal = [TERM_HORIZON] * lanes
    n = 0
    while True:
        col = n % _CHUNK
        buf[0, lane, col] = t
        buf[1, lane, col] = x
        buf[2, lane, col] = y
        n += 1
        if len(lane) < BATCH_MIN_LANES:
            for i, r in enumerate(lane.tolist()):
                pieces[r].append(buf[:, r, : col + 1].copy())
                ts, xs, ys = array("d"), array("d"), array("d")
                terminal[r] = _rk4_run(
                    a, b, c, e, float(t[i]), float(x[i]), float(y[i]), n,
                    dt, t_max, stop_tol, clamp_tol, ts, xs, ys,
                )
                pieces[r].append(np.array((ts, xs, ys)))
            break
        # working lane -> terminal code, for the lanes that stop here
        stops = {}
        near = (np.minimum(x, 1.0 - x) <= box) & (np.minimum(y, 1.0 - y) <= box)
        for i in np.flatnonzero(near).tolist():
            k = _corner_hit(float(x[i]), float(y[i]), corners, tol2)
            if k != TERM_HORIZON:
                stops[i] = k
        for i in np.flatnonzero(t >= t_end).tolist():
            stops.setdefault(i, TERM_HORIZON)
        if n >= n_max:
            for i in range(len(lane)):
                stops.setdefault(i, TERM_BUDGET)
        if stops:
            for i, k in stops.items():
                r = lane[i]
                pieces[r].append(buf[:, r, : col + 1].copy())
                terminal[r] = k
            keep = np.ones(len(lane), dtype=bool)
            keep[list(stops)] = False
            lane, t, x, y = lane[keep], t[keep], x[keep], y[keep]
            if not len(lane):
                break
        if col == _CHUNK - 1:
            for r in lane:
                pieces[r].append(buf[:, r].copy())
        h = np.where(t + dt > t_max, t_max - t, dt)
        xn, yn = rk4_attempt(a, b, c, e, x, y, h)
        # NaN fails both tests; the lanes that cannot be taken as they
        # are go one by one through rk4_step, which recomputes their attempt
        if not (np.minimum(xn, yn).min() >= lo and np.maximum(xn, yn).max() <= hi):
            ok = (xn >= lo) & (xn <= hi) & (yn >= lo) & (yn <= hi)
            for i in np.flatnonzero(~ok).tolist():
                xn[i], yn[i], h[i] = rk4_step(
                    a, b, c, e, float(x[i]), float(y[i]), float(h[i]), clamp_tol
                )
        x, y = xn, yn
        t = t + h
    del buf  # returned to the OS before the pieces are joined
    paths = []
    for r in range(lanes):
        chunks = pieces[r]
        pieces[r] = None
        paths.append((
            np.concatenate([p[0] for p in chunks]),
            np.concatenate([p[1:].T for p in chunks]),
            terminal[r],
        ))
    return paths
