"""Inner integration loops for the replicator field.

The field is dx/dt = x(1-x)(a - b y), dy/dt = y(1-y)(c - e x); the
functions take the four precomputed coefficients so they stay
independent of the dataclasses in the rest of the package.  The scalar
path loop, _rk4_run, is plain Python over floats and holds the package's
one scalar RK4 step, its stages written inline with its halve-and-clamp
retry.  rk4_paths takes the ordinary steps of many starts at once as
one flat numpy row per sample, the x of every start followed by their y
in reversed order, so that a stage reads each coordinate's partner from
the row's reversal, on one shared clock, each step's stages computed in
place in a workspace made once per lane count; once per chunk of steps
it finds the sample at which each start leaves the batch and hands it
from there to the scalar loop.  evobench/README.md describes how their
cost is measured.  The tests' references, a separate RK4 attempt and
step and a forward-Euler path, are in tests/helpers.py.
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

#: rk4_paths tests for leaves after its first step and then at every
#: multiple of this many steps, and so holds at most this many states per
#: lane before copying them into the lane's pieces.  Holding every step
#: of every lane would cost more memory than the finished trajectories.
#: On the 400 grid starts of evobench's basin_sweep (seeds 1, 5, 51;
#: fresh process each, ru_maxrss), whose finished trajectories hold
#: 8.7 MB of states, the sweep's peak RSS with 64 is 1.2-1.9 MB and with
#: 128 at most 0.7 MB above that with 256, in small pieces.  A sweep
#: took 71-77, 66-72 and 70-79 ms (medians of 63, interleaved): a shorter
#: chunk tests and copies more often, and a longer one computes more
#: discarded steps of the lanes that left.
_CHUNK = 128


def _read_only(v):
    """v as a read-only 0-d float64 array.  A ufunc converts a Python
    float operand on every call, at (2, 400) about 0.2 us of a 0.5 us
    call; a 0-d array of the same value gives the same result without
    that."""
    v = np.array(v, dtype=np.float64)
    v.flags.writeable = False
    return v


_ONE = _read_only(1.0)
_TWO = _read_only(2.0)


def _step_factors(h):
    """The operands of rk4_attempt_stacked for a step of size h: h, 0.5 *
    h and h / 6.0, rounded as _rk4_run rounds them, as read-only 0-d
    arrays; made once per step size."""
    return tuple(map(_read_only, (h, 0.5 * h, h / 6.0)))


def stacked_workspace(m):
    """Scratch for rk4_attempt_stacked on m states in the flat layout of
    rk4_paths: six rows of 2 * m floats, the stage state z, the four
    stage slopes f1 to f4 and a factor u, as the tuple (z, z[::-1], f2
    and f3 as one row of 4 * m, f1, f2, f3, f4, u), its views made once;
    96 bytes a state."""
    work = np.empty((6, 2 * m))
    return (work[0], work[0, ::-1], work[2:4].reshape(-1), *work[1:])


# looked up once, and given out positionally: at (2, 400) the lookup and
# the out= keyword each cost about 0.04 us of a 0.5 us call
_subtract, _multiply, _add = np.subtract, np.multiply, np.add


def rk4_attempt_stacked(p, q, s, s_rev, factors, out, work):
    """One unclamped RK4 attempt of _rk4_run on m states at once in the
    flat layout of rk4_paths: s is the row [x_0 ... x_{m-1}, y_{m-1} ...
    y_0] and s_rev its reversal s[::-1], which holds each coordinate's
    partner at its position, p = [a] * m + [c] * m, q = [b] * m + [e] *
    m, and factors is _step_factors(h).  The result is written into out,
    a row of 2 * m that is not s, and the stages into work, a
    stacked_workspace(m) that no argument shares memory with.

    Each stage's slope is z * (1.0 - z) * (p - q * z[::-1]): x's term in
    the first half and y's in the second, with the same elementwise IEEE
    operations in the same order, so every state rounds exactly as the
    scalar attempt on its floats; test_stacked_attempt_matches_rk4_attempt
    pins that bit for bit against the reference in tests/helpers.py.
    """
    z, z_rev, f23, f1, f2, f3, f4, u = work
    h, half, sixth = factors
    _subtract(_ONE, s, f1)
    _multiply(s, f1, f1)
    _multiply(q, s_rev, u)
    _subtract(p, u, u)
    _multiply(f1, u, f1)
    _multiply(half, f1, z)
    _add(s, z, z)
    _subtract(_ONE, z, f2)
    _multiply(z, f2, f2)
    _multiply(q, z_rev, u)
    _subtract(p, u, u)
    _multiply(f2, u, f2)
    _multiply(half, f2, z)
    _add(s, z, z)
    _subtract(_ONE, z, f3)
    _multiply(z, f3, f3)
    _multiply(q, z_rev, u)
    _subtract(p, u, u)
    _multiply(f3, u, f3)
    _multiply(h, f3, z)
    _add(s, z, z)
    _subtract(_ONE, z, f4)
    _multiply(z, f4, f4)
    _multiply(q, z_rev, u)
    _subtract(p, u, u)
    _multiply(f4, u, f4)
    # f1 + 2.0 * f2 + 2.0 * f3 + f4, summed left to right into f1; both
    # doublings in one call, as neither reads f1
    _multiply(_TWO, f23, f23)
    _add(f1, f2, f1)
    _add(f1, f3, f1)
    _add(f1, f4, f1)
    _multiply(sixth, f1, f1)
    return _add(s, f1, out)


#: Fewest lanes for which a batched step of rk4_paths beats one rk4_path
#: step per lane: on the fixture game a batched step costs 10-12 us from
#: 8 to 128 lanes and 17-18 us at 400, a scalar step 0.9-1.0 us (best of
#: 9 runs of 128 steps, 3 processes, a 2-core shared VM).
#: rk4_paths hands its lanes to the scalar loop at the first count with
#: fewer than this left, so fewer starts run in that loop from their
#: first sample.  Batched over all-scalar time (uniform starts on the
#: fixture game at the default config, seeds 1-6, medians of 7, of 11
#: at 16, interleaved; "grid 16" is the jittered 4 x 4 grid of evobench's
#: cli_files):
#:
#:   starts               8        12       16       20       24       32       grid 16
#:   batched throughout   1.6-2.5  1.2-1.8  0.9-1.4  0.8-1.2  0.7-1.0  0.6-0.7  0.9-1.8
#:   hand-off below 8     1.2-1.4  1.0-1.3  0.8-1.0  0.7-0.8  0.6-0.7  0.4-0.5  0.8-1.0
#:   hand-off below 12    1.0      0.9-1.1  0.8-0.9  0.6-0.7  0.6-0.7  0.4-0.5  0.7-0.9
#:   hand-off below 16    1.0      1.0-1.1  0.8-1.0  0.7-0.9  0.5-0.7  0.4-0.5  0.8-0.9
#:   hand-off below 20    1.0      1.0-1.1  1.0      0.7-0.9  0.6-0.7  0.4-0.5  0.9-1.0
#:
#: On 400 grid starts 12 and 20 read within 2 % of each other.  Below 12
#: a batch of 8 to 12 starts spends more than it saves, and from 12 on the
#: hand-off below 12 is as fast as any; so a 16-start simulate takes
#: batched steps.
BATCH_MIN_LANES = 12


def _path_rules(dt, t_max, stop_tol):
    """The stop rules of a path, made once per integration call and read
    by both loops, as (dt, t_max, t_end, n_max, corners, tol2, box).

    A path stops at the horizon once its time reaches t_end = t_max -
    1e-10 * dt, a margin far below one step whatever dt is, and exactly
    1e-12 at the default dt = 0.01; it stops at its budget once it holds
    n_max = 2 * int(t_max / dt) + 16 samples.  A point stops at the
    first of the (index, corner) pairs in corners with (x - cx) ** 2 +
    (y - cy) ** 2 <= tol2; corners is empty when stopping is off.  Any
    such point has min(x, 1 - x) <= box and min(y, 1 - y) <= box, so
    only points in that box are tested: 1 - x is exact for x >= 0.5
    (Sterbenz), a sum of nonnegative floats is at least each term, and
    box allows for an ulp of pow() rounding, relative, or absolute where
    the squares underflow: a distance below about 1.6e-162 squares to 0,
    which is within any stop_tol.
    """
    corners = tuple(enumerate(CORNERS)) if stop_tol >= 0.0 else ()
    box = stop_tol * (1.0 + 1e-9) + 1e-150
    return dt, t_max, t_max - 1e-10 * dt, 2 * int(t_max / dt) + 16, corners, stop_tol * stop_tol, box


def _rk4_run(a, b, c, e, rules, t, x, y, n, ts, xs, ys):
    """The loop of rk4_path under the _path_rules tuple rules, from a
    path's n-th sample (t, x, y), which the caller has recorded: tests it
    for a stop, then steps and appends each further sample to the
    buffers ts, xs, ys.  Returns the terminal code.

    This is the package's one scalar RK4 step.  An attempt of size h
    computes the four classical stages from (x, y), unclamped, and is
    taken as it is when it lies in the unit square, -0.0 included.  One
    that overshoots by at most CLAMP_TOL is clamped onto the square; a
    larger overshoot, or NaN, is retried at half the step.  After 64
    attempts the last one is kept, clamped, and the clock advances by h
    halved once more; if it is NaN the path ends, unrecorded.
    """
    dt, t_max, t_end, n_max, corners, tol2, box = rules
    while True:
        if (x <= box or 1.0 - x <= box) and (y <= box or 1.0 - y <= box):
            for k, (cx, cy) in corners:
                if (x - cx) ** 2 + (y - cy) ** 2 <= tol2:
                    return k
        if t >= t_end:
            return TERM_HORIZON
        if n >= n_max:
            return TERM_BUDGET
        h = t_max - t if t + dt > t_max else dt
        tries = 0
        while True:
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
            if 0.0 <= xn <= 1.0 and 0.0 <= yn <= 1.0:
                break
            tries += 1
            kept = -CLAMP_TOL <= xn <= 1.0 + CLAMP_TOL and -CLAMP_TOL <= yn <= 1.0 + CLAMP_TOL
            if not kept:
                h *= 0.5
            if kept or tries == 64:
                xn = min(max(xn, 0.0), 1.0)
                yn = min(max(yn, 0.0), 1.0)
                if xn != xn or yn != yn:
                    return TERM_DIVERGED
                break
        x, y = xn, yn
        t += h
        ts.append(t)
        xs.append(x)
        ys.append(y)
        n += 1


def rk4_path(a, b, c, e, x0, y0, dt, t_max, stop_tol):
    """Integrate with fixed-step RK4, recording every accepted step.

    Stops once the state comes within stop_tol (Euclidean) of a unit
    square corner; pass a negative stop_tol to disable stopping.  Steps
    are taken by _rk4_run; the last one is shortened to end at t_max.
    At most the sample budget of _path_rules is recorded; the buffers
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
    rules = _path_rules(dt, t_max, stop_tol)
    terminal = _rk4_run(a, b, c, e, rules, 0.0, x0, y0, 1, ts, xs, ys)
    return np.array(ts), np.array(xs), np.array(ys), terminal


def _first_leaves(near_x, near_y, box):
    """Per lane, the sample at which it leaves the batch of rk4_paths,
    given min(v, 1 - v) of its x and of its y at a chunk's samples so far
    as near_x and near_y, sample by lane: the first sample in the box of
    _path_rules or whose next state lies outside the unit square or is
    NaN, else the last.  min(v, 1 - v) is below 0, or NaN, exactly when v
    is outside [0, 1] or NaN; the state after the last sample is not
    computed yet, so every lane leaves there or before."""
    leave = np.maximum(near_x, near_y) <= box
    leave[:-1] |= ~(np.minimum(near_x[1:], near_y[1:]) >= 0.0)
    leave[-1] = True
    return leave.argmax(axis=0)


# a lane that leaves the batch may compute on past its leave sample, to
# inf or NaN, until the chunk ends; those values are thrown away
@np.errstate(over="ignore", invalid="ignore")
def rk4_paths(a, b, c, e, x0s, y0s, dt, t_max, stop_tol):
    """rk4_path from many starts at once, one numpy lane per start.

    The batch of m lanes takes ordinary steps with rk4_attempt_stacked on
    one shared clock, each sample one flat row [x_0 ... x_{m-1}, y_{m-1}
    ... y_0], so that no step reads an operand in reversed lane order
    but the row's own reversal.  The steps come in chunks, the first
    one step long and each later one ending at the next multiple of
    _CHUNK steps.  At a chunk end, and when the batch stops, the chunk's
    y halves are put back in lane order and its samples tested: a lane
    leaves at its first sample in the box of _path_rules, or whose next
    state lies outside the unit square or is NaN, and the states it
    computed after that sample are thrown away.  Every lane leaves when
    the batch stops, at the horizon or once the budget is spent, and at
    a chunk end once fewer than BATCH_MIN_LANES are left; fewer than
    that take no batched step.  A lane that leaves runs on from its leave
    sample in the loop of rk4_path, which alone decides its stop and
    alone halves or clamps a step, so every lane is bit-identical to
    rk4_path.

    Returns one (times, states, terminal) per start, in start order,
    states being the (n, 2) array of recorded (x, y) samples.  The times
    of a lane that stops at its leave sample are a read-only view of the
    batch's one clock, shared with every other such lane; the other
    lanes own theirs.
    """
    rules = _path_rules(dt, t_max, stop_tol)
    _, _, t_end, n_max, _, _, box = rules
    full = _step_factors(dt)
    # the start index of each lane in the batch, also its column in s
    lane = np.arange(len(x0s))
    s = np.array((x0s, y0s), dtype=np.float64)
    t = 0.0
    clock = array("d", (t,))
    n = 1  # samples on the clock
    pieces = [[] for _ in lane]
    # per start: the samples it recorded on the clock, and its later times
    tails = [None] * len(lane)
    terminal = [None] * len(lane)
    # the chunk's flat rows, stepped in place, with views of each row and
    # of its reversal, a scratch of their size, p = [a] * m + [c] * m and
    # q = [b] * m + [e] * m, which makes a step cheaper than broadcasting a
    # and c, and the step's workspace: made again for each lane count m
    # that takes a batched step, as a fresh array or view per step or per
    # test costs more than the step or test
    buf = rows = revs = scratch = work = None
    while True:
        n0 = n - 1  # the clock index of the chunk's first sample
        k = 0  # the chunk's batched steps
        # the first chunk is one step, so that lanes leaving at their start
        # are dropped at once; the others end at multiples of _CHUNK
        stop = _CHUNK - n0 % _CHUNK if n0 else 1
        if len(lane) >= BATCH_MIN_LANES and n < n_max and t < t_end:
            m = len(lane)
            if buf is None or buf.shape[1] != 2 * m:
                # the last chunk's arrays go first, so that old and new
                # are never held together
                buf = rows = revs = scratch = work = states = near = None
                buf = np.empty((_CHUNK + 1, 2 * m))
                rows, revs = list(buf), list(buf[:, ::-1])
                scratch = np.empty_like(buf)
                work = stacked_workspace(m)
                p = np.repeat((a, c), m)
                q = np.repeat((b, e), m)
            buf[0, :m] = s[0]
            buf[0, : m - 1 : -1] = s[1]
            while k < stop and n < n_max and t < t_end:
                h = t_max - t if t + dt > t_max else dt
                # only the shortened last step makes its own factors
                factors = full if h == dt else _step_factors(h)
                rk4_attempt_stacked(p, q, rows[k], revs[k], factors, rows[k + 1], work)
                k += 1
                t += h
                clock.append(t)
                n += 1
            # y back in lane order, through scratch
            np.copyto(scratch[: k + 1, :m], buf[: k + 1, : m - 1 : -1])
            buf[: k + 1, m:] = scratch[: k + 1, :m]
            states = buf[: k + 1].reshape(-1, 2, m)
            near = np.subtract(1.0, states, out=scratch[: k + 1].reshape(-1, 2, m))
        else:
            states = s[np.newaxis]
            near = 1.0 - states
        np.minimum(states, near, out=near)
        first = _first_leaves(near[:, 0], near[:, 1], box)
        stay = first == k
        done = k < stop or np.count_nonzero(stay) < BATCH_MIN_LANES
        for i, (r, j) in enumerate(zip(lane.tolist(), first.tolist())):
            if j == k and not done:
                pieces[r].append(states[:k, :, i].copy())
                continue
            piece = states[: j + 1, :, i].copy()
            pieces[r].append(piece)
            x, y = piece[-1].tolist()
            ts, xs, ys = array("d"), array("d"), array("d")
            terminal[r] = _rk4_run(a, b, c, e, rules, clock[n0 + j], x, y, n0 + j + 1, ts, xs, ys)
            tails[r] = (n0 + j + 1, ts)
            if xs:
                pieces[r].append(np.column_stack((xs, ys)))
        if done:
            break
        # compress keeps s C-ordered; s[:, stay] would not, and every
        # later ufunc call would iterate it strided
        lane, s = lane[stay], states[k].compress(stay, axis=1)
    # returned to the OS before the pieces are joined
    del buf, rows, revs, scratch, work, states, near
    # lanes that stopped at their leave sample share views of the clock
    clock = np.array(clock)
    clock.flags.writeable = False
    paths = []
    for r, chunks in enumerate(pieces):
        n, ts = tails[r]
        tails[r] = pieces[r] = None
        times = np.concatenate((clock[:n], ts)) if ts else clock[:n]
        paths.append((times, np.concatenate(chunks), terminal[r]))
    return paths
