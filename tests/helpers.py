"""Shared test utilities: parameter samplers and slow-but-simple oracles.

Everything in here is deliberately independent of the package internals —
oracles go through the public API only (``replicator_rhs``) or reimplement
the arithmetic from scratch, so they can catch bugs in the fast paths.
"""

from __future__ import annotations

import math

import numpy as np

from evoloss import (
    DEFAULT_OFFDIAG_WEIGHT,
    DEFAULT_TEMPERATURE,
    PayoffParams,
    PopulationState,
    SchedulerConfig,
    Transition,
    TrainingLog,
    barlow_twins,
    encoder_forward,
    field_coefficients,
    gen_two_view_batch,
    info_nce,
    init_encoder,
    init_policy,
    map_action,
    observe_state,
    policy_act,
    ppo_update,
    replicator_rhs,
    reward,
    saddle_point,
)
from evoloss.lab import LOG_COLUMNS


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


def fd_jacobian(p: PayoffParams, state: PopulationState, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of the replicator field."""
    out = np.empty((2, 2))
    for j, (ex, ey) in enumerate(((1.0, 0.0), (0.0, 1.0))):
        plus = replicator_rhs(p, PopulationState(state.x + h * ex, state.y + h * ey))
        minus = replicator_rhs(p, PopulationState(state.x - h * ex, state.y - h * ey))
        out[0, j] = (plus[0] - minus[0]) / (2.0 * h)
        out[1, j] = (plus[1] - minus[1]) / (2.0 * h)
    return out


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


def replay_train_episode(
    cfg,
    sched_cfg=None,
    temperature=DEFAULT_TEMPERATURE,
    epsilon=DEFAULT_OFFDIAG_WEIGHT,
    initial_policy=None,
) -> TrainingLog:
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
        loss_gen, (gi1, gi2) = info_nce(z1, z2, temperature)
        loss_dis, (gb1, gb2) = barlow_twins(z1, z2, epsilon)
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
