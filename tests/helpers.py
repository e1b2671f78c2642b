"""Shared test utilities: parameter samplers and slow-but-simple oracles.

Everything in here is deliberately independent of the package internals —
oracles go through the public API only (``replicator_rhs``, ``jacobian``)
or reimplement the arithmetic from scratch, so they can catch bugs in the
fast paths.
The exceptions are ``rk4_attempt`` and ``rk4_step``, the references for
the kernels' RK4 step, which the scalar path loop writes inline, and
``step_rk4``, their checked public form, which the tests walk to rebuild
paths step by step.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from evoloss import (
    ZERO_TOL,
    PayoffParams,
    PolicyParams,
    PopulationState,
    SchedulerConfig,
    StabilityClass,
    Transition,
    TrainingLog,
    ValidationError,
    barlow_twins,
    check_state,
    encoder_forward,
    field_coefficients,
    gen_two_view_batch,
    info_nce,
    init_encoder,
    init_policy,
    jacobian,
    map_action,
    observe_state,
    policy_act,
    ppo_update,
    replicator_rhs,
    reward,
    saddle_point,
)
from evoloss import _kernels
from evoloss.game import field_scale
from evoloss.lab import LOG_COLUMNS
from evoloss.scheduler import CLIP_EPS, DISCOUNT, LEARNING_RATE, LOG_STD_MAX, LOG_STD_MIN


def sample_saddle_params(rng: np.random.Generator, margin: float = 0.02) -> PayoffParams:
    """Draw random payoff parameters whose interior fixed point is comfortably
    inside the unit square (rejection sampling)."""
    while True:
        p = PayoffParams(
            g1=rng.uniform(0.5, 3.0),
            d1=rng.uniform(0.5, 3.0),
            g2=rng.uniform(0.5, 3.0),
            d2=rng.uniform(0.5, 3.0),
            n1=rng.uniform(0.0, 0.5),
            n2=rng.uniform(0.0, 0.5),
            w1=rng.uniform(0.5, 2.0),
            w2=rng.uniform(0.5, 2.0),
        )
        try:
            s = saddle_point(p)
        except Exception:
            continue
        if margin <= s.x <= 1.0 - margin and margin <= s.y <= 1.0 - margin:
            return p


def sample_gentle_pair(rng: np.random.Generator) -> tuple[PayoffParams, PopulationState]:
    """Weak-field regime: small payoffs keep the flow slow enough that a
    fine-step Euler reference is itself accurate to well below 1e-6."""
    p = PayoffParams(
        g1=rng.uniform(0.05, 0.25),
        d1=rng.uniform(0.05, 0.25),
        g2=rng.uniform(0.05, 0.25),
        d2=rng.uniform(0.05, 0.25),
        n1=rng.uniform(0.0, 0.08),
        n2=rng.uniform(0.0, 0.08),
        w1=rng.uniform(0.9, 1.1),
        w2=rng.uniform(0.9, 1.1),
    )
    start = PopulationState(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
    return p, start


def rk4_attempt(a, b, c, e, x, y, h):
    """The four RK4 stages of one attempt of size h from the float state
    (x, y), unclamped, rounded as the kernels' scalar loop rounds them;
    rk4_attempt_stacked is the same arithmetic on many states at once."""
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
    """One classical RK4 step of size h from (x, y), as the kernels' scalar
    loop takes it.

    An attempt whose result overshoots the unit square by more than
    _kernels.CLAMP_TOL is rejected and retried at half the step.  Returns
    (x, y, h): the result clamped onto the square and h as the loop
    leaves it, which is the step taken, except that after 64 rejected
    attempts the last one is kept and h has been halved once more.
    """
    tol = _kernels.CLAMP_TOL
    for _ in range(64):
        xn, yn = rk4_attempt(a, b, c, e, x, y, h)
        if -tol <= xn <= 1.0 + tol and -tol <= yn <= 1.0 + tol:
            break
        h *= 0.5
    return min(max(xn, 0.0), 1.0), min(max(yn, 0.0), 1.0), h


def step_rk4(p: PayoffParams, state, dt: float) -> PopulationState:
    """One classical RK4 step, as the integrators take it: the checked
    public form of rk4_step.

    The result is clamped onto the unit square when it overshoots by
    less than _kernels.CLAMP_TOL; a larger overshoot rejects
    the attempt and retries at half the step, so the time actually
    advanced may be dt / 2**k.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValidationError(f"dt must be positive, got {dt}")
    x, y = check_state(state)
    a, b, c, e = field_coefficients(p)
    x, y, _ = rk4_step(a, b, c, e, x, y, dt)
    return PopulationState(x, y)


def euler_flow(p: PayoffParams, start: PopulationState, dt: float, t_max: float) -> PopulationState:
    """Plain forward-Euler integration through the public RHS.

    Slow and simple on purpose; used as an independent reference for the
    packaged integrators.
    """
    x, y = float(start.x), float(start.y)
    n = int(round(t_max / dt))
    for _ in range(n):
        dx, dy = replicator_rhs(p, PopulationState(x, y))
        x = min(max(x + dt * dx, 0.0), 1.0)
        y = min(max(y + dt * dy, 0.0), 1.0)
    return PopulationState(x, y)


def euler_path(a, b, c, e, x0, y0, dt, n_steps, record_every):
    """Plain forward-Euler path over the field coefficients, clamped to
    the unit square, recording the start and then every record_every-th
    step."""
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


def fd_jacobian(p: PayoffParams, state: PopulationState, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of the replicator field."""
    out = np.empty((2, 2))
    for j, (ex, ey) in enumerate(((1.0, 0.0), (0.0, 1.0))):
        plus = replicator_rhs(p, PopulationState(state.x + h * ex, state.y + h * ey))
        minus = replicator_rhs(p, PopulationState(state.x - h * ex, state.y - h * ey))
        out[0, j] = (plus[0] - minus[0]) / (2.0 * h)
        out[1, j] = (plus[1] - minus[1]) / (2.0 * h)
    return out


def classify_by_eigen(p: PayoffParams, point) -> StabilityClass:
    """Classification of a fixed point from the Jacobian's eigenvalues,
    independent of classify's det/trace rule.

    Both real parts negative: stable; both positive: unstable; strictly
    opposite signs: saddle; any real part within ZERO_TOL times the
    field's scale of zero: degenerate.
    """
    real_parts = np.linalg.eigvals(jacobian(p, point)).real
    if np.any(np.abs(real_parts) <= ZERO_TOL * field_scale(field_coefficients(p))):
        return StabilityClass.DEGENERATE
    if np.all(real_parts < 0.0):
        return StabilityClass.STABLE_POINT
    if np.all(real_parts > 0.0):
        return StabilityClass.UNSTABLE_POINT
    return StabilityClass.SADDLE_POINT


# The paper's derivation of the replicator field: each player's income
# matrix (row = own move, column = the opponent's, cooperate first) and
# the expected incomes under the two populations' mixes.  y is the
# generalizability population's cooperating share, x the
# discriminability population's.


def income_matrix_gen(p: PayoffParams) -> np.ndarray:
    """Income matrix of the generalizability player."""
    return np.array(
        [
            [p.w1 * (p.g1 - p.n2) + (p.d2 - p.n1), p.w1 * p.g1 + p.d1],
            [p.w1 * p.g2 + p.d2, 0.0],
        ]
    )


def income_matrix_dis(p: PayoffParams) -> np.ndarray:
    """Income matrix of the discriminability player."""
    return np.array(
        [
            [(p.g1 - p.n2) + p.w2 * (p.d2 - p.n1), p.g2 + p.w2 * p.d2],
            [p.g1 + p.w2 * p.d1, 0.0],
        ]
    )


def _expected_utility(h: np.ndarray, own_share: float, opponent_share: float):
    """(u_coop, u_mean): the income of cooperating against the opponent
    mix, and the population-average income."""
    own = np.array([own_share, 1.0 - own_share])
    opponent = np.array([opponent_share, 1.0 - opponent_share])
    return float(h[0] @ opponent), float(own @ h @ opponent)


def expected_utility_gen(p: PayoffParams, state) -> tuple[float, float]:
    """(u_coop, u_mean) of the generalizability player."""
    x, y = check_state(state)
    return _expected_utility(income_matrix_gen(p), y, x)


def expected_utility_dis(p: PayoffParams, state) -> tuple[float, float]:
    """(u_coop, u_mean) of the discriminability player."""
    x, y = check_state(state)
    return _expected_utility(income_matrix_dis(p), x, y)


def cosine(u, v) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def rhs_norm(p: PayoffParams, state: PopulationState) -> float:
    dx, dy = replicator_rhs(p, state)
    return math.hypot(dx, dy)


def assert_coefficients_positive(p: PayoffParams) -> None:
    a, b, c, e = field_coefficients(p)
    assert min(a, b, c, e) > 0.0


def replay_train_episode(cfg, sched_cfg=None, initial_policy=None) -> TrainingLog:
    """train_episode rebuilt step by step from the public, checked
    functions, in the order its docstring gives; the reference for the
    fused loop, which must equal it bit for bit."""
    sched_cfg = sched_cfg or SchedulerConfig()
    rng = np.random.default_rng(cfg.seed)
    weights = init_encoder(rng, cfg)
    policy = initial_policy or init_policy(cfg.feature_dim, rng)
    records = np.empty((cfg.steps, len(LOG_COLUMNS)))
    buffer, updates = [], []
    loss_prev = None
    for step in range(cfg.steps):
        x1, x2 = gen_two_view_batch(rng, cfg)
        z1 = encoder_forward(weights, x1)
        z2 = encoder_forward(weights, x2)
        state = observe_state(np.vstack((z1, z2)))
        action, log_prob, value = policy_act(policy, state, rng)
        w = map_action(action, sched_cfg)
        loss_gen, (gi1, gi2) = info_nce(z1, z2)
        loss_dis, (gb1, gb2) = barlow_twins(z1, z2)
        loss = w.alpha * loss_gen + w.beta * loss_dis
        g_z1 = w.alpha * gi1 + w.beta * gb1
        g_z2 = w.alpha * gi2 + w.beta * gb2
        weights = weights - cfg.learning_rate * (x1.T @ g_z1 + x2.T @ g_z2)
        r = reward(w, sched_cfg, loss, loss_prev)
        loss_prev = loss
        buffer.append(Transition(state, action, r, log_prob, value))
        if len(buffer) == sched_cfg.update_period:
            policy, stats = ppo_update(policy, buffer, sched_cfg)
            updates.append(stats)
            buffer = []
        records[step] = (step, w.alpha, w.beta, r, loss, loss_gen, loss_dis)
    return TrainingLog(records, weights, policy, tuple(updates))


# The two losses one view at a time, as separate arrays: the reference
# for the package kernels, which run both views as one stacked array.


def _reference_row_norms(z):
    return np.sqrt(np.add.reduce(z * z, axis=1, keepdims=True))


def _reference_centered_columns(z):
    centered = z - np.add.reduce(z, axis=0) / z.shape[0]
    return centered, np.sqrt(np.add.reduce(centered * centered, axis=0))


def _reference_exp_rows(s):
    m = np.maximum.reduce(s, axis=1, keepdims=True)
    e = np.exp(s - m)
    return m, e, np.add.reduce(e, axis=1, keepdims=True)


def reference_info_nce(z1, z2, temperature):
    """InfoNCE on checked input; returns (loss, grad_z1, grad_z2)."""
    nu = _reference_row_norms(z1)
    nv = _reference_row_norms(z2)
    u = z1 / nu
    v = z2 / nv
    s = (u @ v.T) / temperature
    n = s.shape[0]
    idx = np.arange(n)
    diag = s.diagonal()
    m1, e1, r1 = _reference_exp_rows(s)
    m2, e2, r2 = _reference_exp_rows(s.T)
    loss = 0.5 * (
        np.add.reduce((m1 + np.log(r1))[:, 0] - diag) / n
        + np.add.reduce((m2 + np.log(r2))[:, 0] - diag) / n
    )
    p1 = e1 / r1
    p1[idx, idx] -= 1.0
    p2 = e2 / r2
    p2[idx, idx] -= 1.0
    g_s = (p1 + p2.T) / (2.0 * n)
    g_u = (g_s @ v) / temperature
    g_v = (g_s.T @ u) / temperature
    g1 = (g_u - u * np.add.reduce(g_u * u, axis=1, keepdims=True)) / nu
    g2 = (g_v - v * np.add.reduce(g_v * v, axis=1, keepdims=True)) / nv
    return float(loss), g1, g2


def reference_cross_correlation(z1, z2):
    """Batch cross-correlation matrix between feature dimensions: columns
    centered over the batch and unit-normalized, so that every entry is a
    correlation coefficient in [-1, 1]."""
    ca, na = _reference_centered_columns(z1)
    cb, nb = _reference_centered_columns(z2)
    return (ca / na).T @ (cb / nb)


def reference_barlow_twins(z1, z2, epsilon):
    """Barlow Twins on checked input; returns (loss, grad_z1, grad_z2)."""
    ca, na = _reference_centered_columns(z1)
    cb, nb = _reference_centered_columns(z2)
    a = ca / na
    b = cb / nb
    corr = a.T @ b
    idx = np.arange(corr.shape[0])
    diag = corr.diagonal()
    off = corr.copy()
    off[idx, idx] = 0.0
    loss = float(np.add.reduce((1.0 - diag) ** 2) + epsilon * np.add.reduce(off**2, axis=None))
    g_c = 2.0 * epsilon * corr
    g_c[idx, idx] = -2.0 * (1.0 - diag)
    g_a = b @ g_c.T
    g_b = a @ g_c
    g_za = (g_a - a * np.add.reduce(g_a * a, axis=0)) / na
    g_zb = (g_b - b * np.add.reduce(g_b * b, axis=0)) / nb
    n = g_za.shape[0]
    g1 = g_za - np.add.reduce(g_za, axis=0) / n
    g2 = g_zb - np.add.reduce(g_zb, axis=0) / n
    return loss, g1, g2


# The clipped-surrogate update with the action-mean and value networks
# written out as two separate forward and backward passes: the reference
# for ppo_update, which must equal it bit for bit.


def reference_returns(rewards):
    """Reward-to-go of each step: sum over k >= 0 of DISCOUNT**k times
    the reward k steps later, accumulated from the last step back."""
    returns = np.empty(len(rewards))
    acc = 0.0
    for t in reversed(range(len(rewards))):
        acc = rewards[t] + DISCOUNT * acc
        returns[t] = acc
    return returns


def reference_ppo_step(policy, buffer):
    """ppo_update on a full buffer of Transitions; returns (new_policy,
    stats, ratio, adv), the last two the per-sample probability ratios
    and normalized advantages that the clip acts on."""
    states = np.stack([tr.state for tr in buffer])
    actions = np.stack([tr.action for tr in buffer])
    rewards = np.array([tr.reward for tr in buffer])
    old_logp = np.array([tr.log_prob for tr in buffer])
    values = np.array([tr.value for tr in buffer])
    n = len(rewards)
    returns = reference_returns(rewards)
    adv = returns - values
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)

    log_std = policy.log_std.clip(LOG_STD_MIN, LOG_STD_MAX)
    std = np.exp(log_std)
    h = np.tanh(states @ policy.w1 + policy.b1)
    mu = h @ policy.w2 + policy.b2
    raw = np.arctanh(np.clip(actions, -(1.0 - 1e-7), 1.0 - 1e-7))
    z = (raw - mu) / std
    gauss = np.add.reduce(-0.5 * z**2 - log_std - 0.5 * math.log(2.0 * math.pi), axis=-1)
    new_logp = gauss - np.add.reduce(np.log(1.0 - actions**2 + 1e-8), axis=-1)
    ratio = np.exp(new_logp - old_logp)
    unclipped = ratio * adv
    objective = np.minimum(unclipped, np.clip(ratio, 1.0 - CLIP_EPS, 1.0 + CLIP_EPS) * adv)
    active = unclipped <= objective
    dl_dlogp = -(active * ratio * adv) / n
    g_mu = dl_dlogp[:, None] * (z / std)
    g_log_std = np.sum(dl_dlogp[:, None] * (z**2 - 1.0), axis=0)
    g_w2 = h.T @ g_mu
    g_b2 = g_mu.sum(axis=0)
    g_h = (g_mu @ policy.w2.T) * (1.0 - h**2)
    g_w1 = states.T @ g_h
    g_b1 = g_h.sum(axis=0)

    hv = np.tanh(states @ policy.vw1 + policy.vb1)
    v_err = hv @ policy.vw2 + policy.vb2 - returns
    g_v = v_err / n
    g_vw2 = hv.T @ g_v
    g_vb2 = float(g_v.sum())
    g_hv = np.outer(g_v, policy.vw2) * (1.0 - hv**2)
    g_vw1 = states.T @ g_hv
    g_vb1 = g_hv.sum(axis=0)

    lr = LEARNING_RATE
    new_policy = PolicyParams(
        w1=policy.w1 - lr * g_w1,
        b1=policy.b1 - lr * g_b1,
        w2=policy.w2 - lr * g_w2,
        b2=policy.b2 - lr * g_b2,
        vw1=policy.vw1 - lr * g_vw1,
        vb1=policy.vb1 - lr * g_vb1,
        vw2=policy.vw2 - lr * g_vw2,
        vb2=policy.vb2 - lr * g_vb2,
        log_std=np.clip(log_std - lr * g_log_std, LOG_STD_MIN, LOG_STD_MAX),
    )
    stats = {
        "policy_loss": -float(objective.mean()),
        "value_loss": 0.5 * float(np.mean(v_err**2)),
        "clip_fraction": float(np.mean(~active)),
        "mean_ratio": float(ratio.mean()),
    }
    return new_policy, stats, ratio, adv


#: Floats whose repr is easy to get wrong: signed zero, the smallest
#: subnormal, exponent forms on both sides, a rounding tail, inf and nan.
AWKWARD_FLOATS = (-0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2, math.inf, -math.inf, math.nan)

# The output files as the csv module writes them: the byte-for-byte
# reference for the package writers, which format repr fields directly.


def reference_write_trajectories_csv(trajectories, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["trajectory_id", "t", "x", "y"])
        for tid, traj in enumerate(trajectories):
            for t, (x, y) in zip(traj.times, traj.states):
                writer.writerow([tid, repr(float(t)), repr(float(x)), repr(float(y))])


def reference_write_training_log(log, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LOG_COLUMNS)
        for row in log.records:
            writer.writerow([int(row[0])] + [repr(float(v)) for v in row[1:]])


def reference_save_encoder_weights(weights, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# encoder weights {weights.shape[0]} {weights.shape[1]}\n")
        for value in weights.ravel():
            fh.write(f"{float(value)!r}\n")
