"""Inner integration loops for the replicator field.

The field is dx/dt = x(1-x)(a - b y), dy/dt = y(1-y)(c - e x); the
functions take the four precomputed coefficients so they stay
independent of the dataclasses in the rest of the package.  They are
plain Python over floats; evobench/README.md describes how their cost
is measured.
"""

from __future__ import annotations

import numpy as np

from .game import CORNERS

#: There is one interpreted backend; evobench/run.py reports this flag
#: in its environment line.
JIT_ENABLED = False


def rk4_step(a, b, c, e, x, y, h, clamp_tol):
    """One classical RK4 step of size h from (x, y).

    An attempt whose result overshoots the unit square by more than
    clamp_tol is rejected and retried at half the step.  Returns
    (x, y, h): the result clamped onto the square and h as the loop
    leaves it, which is the step taken, except that after 64 rejected
    attempts the last one is kept and h has been halved once more.
    """
    for _ in range(64):
        # x + 0.5 * h * f evaluates as x + (0.5 * h) * f, so taking the
        # factors once per attempt changes no rounding
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
        if (
            -clamp_tol <= xn <= 1.0 + clamp_tol
            and -clamp_tol <= yn <= 1.0 + clamp_tol
        ):
            break
        h *= 0.5
    return min(max(xn, 0.0), 1.0), min(max(yn, 0.0), 1.0), h


def rk4_path(a, b, c, e, x0, y0, dt, t_max, stop_tol, clamp_tol):
    """Integrate with fixed-step RK4, recording every accepted step.

    Stops once the state comes within stop_tol (Euclidean) of a unit
    square corner; pass a negative stop_tol to disable stopping.  Steps
    are taken by rk4_step; the last one is shortened to end at t_max.

    Returns (times, xs, ys, terminal): views of the recorded samples,
    and terminal, the index into CORNERS of the corner reached or -1
    when the horizon (or the sample buffer) ran out first.
    """
    n_max = 2 * int(t_max / dt) + 16
    ts = np.empty(n_max)
    xs = np.empty(n_max)
    ys = np.empty(n_max)
    tol2 = stop_tol * stop_tol
    t_end = t_max - 1e-12
    # (index, corner) pairs tested after every step; none when stopping is off
    corners = tuple(enumerate(CORNERS)) if stop_tol >= 0.0 else ()
    t = 0.0
    x = x0
    y = y0
    n = 0
    terminal = -1
    while True:
        ts[n] = t
        xs[n] = x
        ys[n] = y
        n += 1
        for k, (cx, cy) in corners:
            if (x - cx) ** 2 + (y - cy) ** 2 <= tol2:
                terminal = k
                break
        if terminal != -1 or t >= t_end or n >= n_max:
            break
        h = dt
        if t + h > t_max:
            h = t_max - t
        x, y, h = rk4_step(a, b, c, e, x, y, h, clamp_tol)
        t += h
    return ts[:n], xs[:n], ys[:n], terminal


def euler_path(a, b, c, e, x0, y0, dt, n_steps, record_every):
    """Plain forward-Euler path, clamped to the unit square, recording
    the start and then every record_every-th step."""
    m = n_steps // record_every + 1
    xs = np.empty(m)
    ys = np.empty(m)
    x = x0
    y = y0
    xs[0] = x
    ys[0] = y
    k = 1
    for i in range(1, n_steps + 1):
        fx = x * (1.0 - x) * (a - b * y)
        fy = y * (1.0 - y) * (c - e * x)
        x += dt * fx
        y += dt * fy
        x = min(max(x, 0.0), 1.0)
        y = min(max(y, 0.0), 1.0)
        if i % record_every == 0:
            xs[k] = x
            ys[k] = y
            k += 1
    return xs[:k], ys[:k]
