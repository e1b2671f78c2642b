"""Reinforcement-learning scheduler that steers the two loss weights.

A small Gaussian policy with tanh-squashed actions observes the mean
feature vector of the current batch and proposes an action pair; the
action is shifted by a fixed center to become the loss weights.  The
reward prefers weight pairs aligned with a target direction (the
game's interior fixed point) plus a capped bonus for keeping the
training loss steady.  Updates use the clipped-surrogate objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, as_array, as_float, as_int
from .kvfile import read_text
from .losses import LossWeights

#: Weights are clamped to [0, 2 * center] and floored here so LossWeights
#: stays constructible.
WEIGHT_FLOOR = 1e-3

# Update hyper-parameters (standard clipped-surrogate settings).
CLIP_EPS = 0.2
DISCOUNT = 0.99
LEARNING_RATE = 3e-4
HIDDEN_UNITS = 32
LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
LOG_STD_INIT = -1.0

_ATANH_LIMIT = 1.0 - 1e-7
_SQUASH_EPS = 1e-8
_ADV_EPS = 1e-8
_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class SchedulerConfig:
    """Scheduler knobs.

    center: midpoint of the attainable weight range [0, 2 * center].
    explore_weight: scale of the loss-stability bonus.
    prev_loss_scale: factor on the previous loss inside the bonus.
    target: direction the weight pair should align with.
    update_period: steps collected between policy updates.
    reward_cap / denom_floor: guards on the reciprocal bonus.
    """

    center: float = 0.5
    explore_weight: float = 0.1
    prev_loss_scale: float = 1.0
    target: tuple[float, float] = (0.85, 0.87)
    update_period: int = 200
    reward_cap: float = 100.0
    denom_floor: float = 1e-6

    def __post_init__(self):
        for name, rule in (("center", "positive"), ("explore_weight", "nonnegative"),
                           ("prev_loss_scale", "nonnegative"), ("reward_cap", "positive"),
                           ("denom_floor", "positive")):
            as_float(name, getattr(self, name), rule)
        object.__setattr__(
            self, "update_period", as_int("update_period", self.update_period, 1)
        )
        try:
            tx, ty = self.target
        except (TypeError, ValueError):
            raise ValidationError(
                f"target must be a pair of real numbers, got {self.target!r}"
            ) from None
        tx = as_float("target_x", tx, "nonnegative")
        ty = as_float("target_y", ty, "nonnegative")
        # the reward divides by the target's norm, sqrt(tx * tx + ty * ty)
        if not 1e-300 <= tx * tx + ty * ty <= 1e300:
            raise ValidationError(
                f"target must have a squared norm in [1e-300, 1e300], got {self.target}"
            )
        # the largest stability bonus; a Python float product that
        # overflows gives inf without a signal
        if self.explore_weight * min(self.reward_cap, 1.0 / self.denom_floor) > 1e300:
            raise ValidationError(
                "explore_weight * min(reward_cap, 1 / denom_floor) must be at most 1e300"
            )


@dataclass(frozen=True)
class Transition:
    """One step of experience as stored in the update buffer."""

    state: np.ndarray
    action: np.ndarray
    reward: float
    log_prob: float
    value: float

    def __post_init__(self):
        object.__setattr__(self, "state", as_array("state", self.state, (None,)))
        object.__setattr__(self, "action", as_array("action", self.action, (2,)))
        for name in ("reward", "log_prob", "value"):
            as_float(name, getattr(self, name))


@dataclass(frozen=True)
class PolicyParams:
    """Two-layer action-mean network, two-layer value network, and a
    learnable per-dimension log standard deviation (kept in
    [LOG_STD_MIN, LOG_STD_MAX]).  Every field has the shape that
    _policy_layout gives for w1's (state_dim, hidden)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    vw1: np.ndarray
    vb1: np.ndarray
    vw2: np.ndarray
    vb2: float
    log_std: np.ndarray

    def __post_init__(self):
        w1_shape = np.shape(self.w1)
        if len(w1_shape) != 2:
            raise ValidationError(f"w1 must be 2-D (state_dim, hidden), got shape {w1_shape}")
        for name, shape in _policy_layout(*w1_shape):
            if np.shape(getattr(self, name)) != shape:
                raise ValidationError(
                    f"{name} has shape {np.shape(getattr(self, name))}, expected {shape}"
                )

    @property
    def state_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def hidden(self) -> int:
        return self.w1.shape[1]


def init_policy(state_dim: int, rng: np.random.Generator, hidden: int = HIDDEN_UNITS) -> PolicyParams:
    """Fresh policy; output heads start near zero so the initial action
    mean sits at the center of the weight range."""
    state_dim, hidden = as_int("state_dim", state_dim, 1), as_int("hidden", hidden, 1)
    scale_in = 1.0 / math.sqrt(state_dim)
    scale_h = 1.0 / math.sqrt(hidden)
    return PolicyParams(
        w1=rng.normal(0.0, scale_in, (state_dim, hidden)),
        b1=np.zeros(hidden),
        w2=rng.normal(0.0, 0.01 * scale_h, (hidden, 2)),
        b2=np.zeros(2),
        vw1=rng.normal(0.0, scale_in, (state_dim, hidden)),
        vb1=np.zeros(hidden),
        vw2=rng.normal(0.0, 0.01 * scale_h, hidden),
        vb2=0.0,
        log_std=np.full(2, LOG_STD_INIT),
    )


def observe_state(features) -> np.ndarray:
    """Per-dimension mean of a feature batch."""
    z = as_array("features", features, (None, None))
    if z.shape[0] < 1:
        raise ValidationError(f"features must have at least 1 row, got {z.shape}")
    return z.mean(axis=0)


def map_action(action, cfg: SchedulerConfig) -> LossWeights:
    """Shift a squashed action pair by the weight center and clamp.

    Action components are expected in [-1, 1]; the result is clamped to
    [0, 2 * center] and floored at WEIGHT_FLOOR.
    """
    return LossWeights(*_weights(*as_array("action", action, (2,)).tolist(), cfg))


def _weights(a0: float, a1: float, cfg: SchedulerConfig) -> tuple[float, float]:
    """map_action on a checked action pair, as (alpha, beta) floats."""
    top = 2.0 * cfg.center
    return (
        max(min(max(cfg.center + a0, 0.0), top), WEIGHT_FLOOR),
        max(min(max(cfg.center + a1, 0.0), top), WEIGHT_FLOOR),
    )


def reward(
    weights: LossWeights,
    cfg: SchedulerConfig,
    loss_t: float,
    loss_prev: float | None = None,
) -> float:
    """Alignment-plus-stability reward.

    First term: cosine between the weight pair and the target direction.
    Second term (absent on the first step, when loss_prev is None): the
    capped reciprocal of the loss change, scaled by explore_weight.
    """
    as_float("loss_t", loss_t)
    if loss_prev is not None:
        as_float("loss_prev", loss_prev)
    t = np.asarray(cfg.target, dtype=float)
    return _reward(weights.alpha, weights.beta, t, np.linalg.norm(t), cfg, loss_t, loss_prev)


def _cosine(pair, target, target_norm):
    """Cosine between a weight pair and the target, both float arrays,
    given the target's norm."""
    return float(pair @ target / (np.sqrt(pair.dot(pair)) * target_norm))


def _reward(alpha, beta, target, target_norm, cfg, loss_t, loss_prev):
    """reward() on checked input, with the target as an array and its norm."""
    first = _cosine(np.array([alpha, beta]), target, target_norm)
    if loss_prev is None:
        return first
    denom = max(abs(loss_t - cfg.prev_loss_scale * loss_prev), cfg.denom_floor)
    second = cfg.explore_weight * min(1.0 / denom, cfg.reward_cap)
    return first + second


def _clipped_log_std(policy: PolicyParams) -> np.ndarray:
    return policy.log_std.clip(LOG_STD_MIN, LOG_STD_MAX)


def _policy_mean(policy: PolicyParams, states: np.ndarray):
    h = np.tanh(states @ policy.w1 + policy.b1)
    return h @ policy.w2 + policy.b2, h


def _value(policy: PolicyParams, states: np.ndarray):
    hv = np.tanh(states @ policy.vw1 + policy.vb1)
    return hv @ policy.vw2 + policy.vb2, hv


def _squashed_log_prob(raw, mu, log_std, action):
    z = (raw - mu) / np.exp(log_std)
    gauss = np.add.reduce(-0.5 * z**2 - log_std - 0.5 * _LOG_2PI, axis=-1)
    correction = np.add.reduce(np.log(1.0 - action**2 + _SQUASH_EPS), axis=-1)
    return gauss - correction


def policy_act(policy: PolicyParams, state, rng: np.random.Generator):
    """Sample a squashed action for one state.

    Returns (action, log_prob, value); deterministic given the rng.
    """
    return _act(policy, as_array("state", state, (policy.state_dim,)), rng.standard_normal(2))


def _act(policy: PolicyParams, state: np.ndarray, noise: np.ndarray):
    """policy_act on a checked state, with its two standard normals given."""
    mu, _ = _policy_mean(policy, state)
    log_std = _clipped_log_std(policy)
    raw = mu + np.exp(log_std) * noise
    action = np.tanh(raw)
    log_prob = float(_squashed_log_prob(raw, mu, log_std, action))
    value, _ = _value(policy, state)
    return action, log_prob, float(value)


def clipped_objective(ratio, advantage, clip_eps: float = CLIP_EPS):
    """Elementwise clipped-surrogate objective min(r A, clip(r) A)."""
    ratio = np.asarray(ratio, dtype=float)
    advantage = np.asarray(advantage, dtype=float)
    return np.minimum(
        ratio * advantage,
        np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps) * advantage,
    )


def discounted_returns(rewards: np.ndarray, discount: float = DISCOUNT) -> np.ndarray:
    returns = np.empty(len(rewards))
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + discount * acc
        returns[t] = acc
    return returns


def ppo_update(policy: PolicyParams, buffer, cfg: SchedulerConfig):
    """One clipped-surrogate update over a full buffer (single epoch,
    plain gradient step).  Returns (new_policy, stats).

    Advantages are discounted reward-to-go minus the stored value
    estimates, normalized over the buffer.  The value network regresses
    toward the returns; it shares no parameters with the action mean, so
    a zero-advantage buffer leaves the action distribution untouched.
    """
    buffer = list(buffer)
    if not buffer:
        raise ValidationError("update buffer is empty")
    if len(buffer) != cfg.update_period:
        raise ValidationError(
            f"buffer holds {len(buffer)} transitions, expected update_period = {cfg.update_period}"
        )
    for tr in buffer:
        if not isinstance(tr, Transition):
            raise ValidationError(f"buffer entries must be Transitions, got {type(tr).__name__}")
        if len(tr.state) != policy.state_dim:
            raise ValidationError("buffer states do not match the policy's input size")
    return _ppo_step(
        policy,
        np.stack([tr.state for tr in buffer]),
        np.stack([tr.action for tr in buffer]),
        np.array([tr.reward for tr in buffer]),
        np.array([tr.log_prob for tr in buffer]),
        np.array([tr.value for tr in buffer]),
    )


def _ppo_step(policy: PolicyParams, states, actions, rewards, old_logp, values):
    """ppo_update on a checked buffer held as arrays, one row per step."""
    n = len(rewards)
    returns = discounted_returns(rewards)
    adv = returns - values
    adv = (adv - adv.mean()) / (adv.std() + _ADV_EPS)

    log_std = _clipped_log_std(policy)
    std = np.exp(log_std)
    mu, h = _policy_mean(policy, states)
    raw = np.arctanh(np.clip(actions, -_ATANH_LIMIT, _ATANH_LIMIT))
    new_logp = _squashed_log_prob(raw, mu, log_std, actions)
    ratio = np.exp(new_logp - old_logp)

    objective = clipped_objective(ratio, adv)
    policy_loss = -float(objective.mean())
    # gradient flows only through samples where the unclipped branch wins
    unclipped = ratio * adv
    active = unclipped <= objective
    dl_dlogp = -(active * ratio * adv) / n

    z = (raw - mu) / std
    g_mu = dl_dlogp[:, None] * (z / std)
    g_log_std = np.sum(dl_dlogp[:, None] * (z**2 - 1.0), axis=0)

    g_w2 = h.T @ g_mu
    g_b2 = g_mu.sum(axis=0)
    g_h = (g_mu @ policy.w2.T) * (1.0 - h**2)
    g_w1 = states.T @ g_h
    g_b1 = g_h.sum(axis=0)

    v_pred, hv = _value(policy, states)
    v_err = v_pred - returns
    value_loss = 0.5 * float(np.mean(v_err**2))
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
        "policy_loss": policy_loss,
        "value_loss": value_loss,
        "clip_fraction": float(np.mean(~active)),
        "mean_ratio": float(ratio.mean()),
    }
    return new_policy, stats


_POLICY_MAGIC = "evoloss-policy"
_POLICY_VERSION = 1


def _policy_layout(state_dim: int, hidden: int):
    """(field, shape) of each PolicyParams field, in checkpoint order."""
    return (
        ("w1", (state_dim, hidden)),
        ("b1", (hidden,)),
        ("w2", (hidden, 2)),
        ("b2", (2,)),
        ("vw1", (state_dim, hidden)),
        ("vb1", (hidden,)),
        ("vw2", (hidden,)),
        ("vb2", ()),
        ("log_std", (2,)),
    )


def save_policy(policy: PolicyParams, path) -> None:
    """Flat text checkpoint: a version header, then one value per line,
    field by field in _policy_layout order."""
    layout = _policy_layout(policy.state_dim, policy.hidden)
    flat = np.concatenate([np.ravel(getattr(policy, name)) for name, _ in layout])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_POLICY_MAGIC} {_POLICY_VERSION} {policy.state_dim} {policy.hidden}\n"
                 + "".join([f"{v!r}\n" for v in flat.tolist()]))


def load_policy(path) -> PolicyParams:
    lines = read_text(path).splitlines()
    if not lines:
        raise ValidationError("empty checkpoint file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != _POLICY_MAGIC:
        raise ValidationError(f"not a policy checkpoint: {lines[0]!r}")
    try:
        version, state_dim, hidden = (int(v) for v in head[1:])
    except ValueError:
        raise ValidationError(
            f"checkpoint header holds a non-integer: {lines[0]!r}"
        ) from None
    if version != _POLICY_VERSION:
        raise ValidationError(f"unsupported checkpoint version {head[1]}")
    if state_dim < 1 or hidden < 1:
        raise ValidationError(f"checkpoint header has a size below 1: {lines[0]!r}")
    try:
        flat = np.array([float(v) for v in lines[1:] if v.strip()])
    except ValueError:
        raise ValidationError("checkpoint contains a non-numeric value") from None
    layout = _policy_layout(state_dim, hidden)
    sizes = [math.prod(shape) for _, shape in layout]
    if len(flat) != sum(sizes):
        raise ValidationError(
            f"checkpoint holds {len(flat)} values, expected {sum(sizes)}"
        )
    if not np.isfinite(flat).all():
        raise ValidationError("checkpoint contains a non-finite value")
    chunks = np.split(flat, np.cumsum(sizes)[:-1])
    parts = {name: chunk.reshape(shape) for (name, shape), chunk in zip(layout, chunks)}
    parts["vb2"] = float(parts["vb2"])
    return PolicyParams(**parts)
