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

from .errors import ValidationError, as_array, as_float, as_instance, as_int, raising
from .losses import LossWeights

#: The stability bonus per unit of explore_weight is at most REWARD_CAP:
#: the loss change it takes the reciprocal of is floored at 1 / REWARD_CAP.
REWARD_CAP = 100.0

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
    """Scheduler knobs, each stored as the float or int it was read as.

    center: midpoint of the attainable weight range [0, 2 * center].
    explore_weight: scale of the loss-stability bonus.
    target: a float pair, the direction the weight pair should align with,
        also stored as the read-only array _target with its norm _target_norm.
    update_period: steps collected between policy updates.
    """

    center: float = 0.5
    explore_weight: float = 0.1
    target: tuple[float, float] = (0.85, 0.87)
    update_period: int = 200

    def __post_init__(self):
        for name, rule in (("center", "positive"), ("explore_weight", "nonnegative")):
            object.__setattr__(self, name, as_float(name, getattr(self, name), rule))
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
        object.__setattr__(self, "target", (tx, ty))
        target = np.array([tx, ty])
        target.flags.writeable = False
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_target_norm", np.linalg.norm(target))
        # the largest stability bonus; a Python float product that
        # overflows gives inf without a signal
        if self.explore_weight * REWARD_CAP > 1e300:
            raise ValidationError("explore_weight * REWARD_CAP must be at most 1e300")


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
            object.__setattr__(self, name, as_float(name, getattr(self, name)))


@dataclass(frozen=True)
class PolicyParams:
    """Two heads of the same two-layer tanh network, one for the action
    mean (w1, b1, w2, b2) and one for the value (vw1, vb1, vw2, vb2),
    and a learnable per-dimension log standard deviation (kept in
    [LOG_STD_MIN, LOG_STD_MAX]).  Every field is read through as_array
    with the shape that _policy_layout gives for w1's (state_dim,
    hidden), so every weight is a finite float; vb2, of shape (), is
    stored as a float.  log_std clipped to its range and its exp are
    stored as _log_std and _std, made again by dataclasses.replace."""

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
        w1_shape = as_array("w1", self.w1, (None, None)).shape
        for name, shape in _policy_layout(*w1_shape):
            value = as_array(name, getattr(self, name), shape)
            object.__setattr__(self, name, float(value) if shape == () else value)
        log_std = self.log_std.clip(LOG_STD_MIN, LOG_STD_MAX)
        object.__setattr__(self, "_log_std", log_std)
        object.__setattr__(self, "_std", np.exp(log_std))

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
    return PolicyParams(
        *_init_net(rng, state_dim, hidden, (2,)),
        *_init_net(rng, state_dim, hidden, ()),
        np.full(2, LOG_STD_INIT),
    )


def _init_net(rng, state_dim, hidden, out_shape):
    """(w1, b1, w2, b2) of one head, its output of out_shape per state;
    w1 is drawn first, then w2."""
    w1 = rng.normal(0.0, 1.0 / math.sqrt(state_dim), (state_dim, hidden))
    w2 = rng.normal(0.0, 0.01 * (1.0 / math.sqrt(hidden)), (hidden, *out_shape))
    return w1, np.zeros(hidden), w2, np.zeros(out_shape)


def observe_state(features) -> np.ndarray:
    """Per-dimension mean of a feature batch."""
    z = as_array("features", features, (None, None))
    if z.shape[0] < 1:
        raise ValidationError(f"features must have at least 1 row, got {z.shape}")
    with raising("observe_state"):
        return z.mean(axis=0)


def map_action(action, cfg: SchedulerConfig) -> LossWeights:
    """Shift a squashed action pair by the weight center and clamp.

    Action components are expected in [-1, 1]; the result is clamped to
    [0, 2 * center] and floored at WEIGHT_FLOOR.
    """
    as_instance("cfg", cfg, SchedulerConfig)
    return LossWeights(*_weights(*as_array("action", action, (2,)).tolist(), cfg))


def _weights(a0: float, a1: float, cfg: SchedulerConfig) -> tuple[float, float]:
    """map_action on a checked action pair, as (alpha, beta) floats."""
    top = 2.0 * cfg.center
    # the floor, above 0, also does the clamp at 0
    return (max(min(cfg.center + a0, top), WEIGHT_FLOOR),
            max(min(cfg.center + a1, top), WEIGHT_FLOOR))


def reward(
    weights: LossWeights,
    cfg: SchedulerConfig,
    loss_t: float,
    loss_prev: float | None = None,
) -> float:
    """Alignment-plus-stability reward.

    First term: cosine between the weight pair and the target direction.
    Second term (absent on the first step, when loss_prev is None): the
    reciprocal of the loss change capped at REWARD_CAP, times explore_weight.
    """
    as_instance("weights", weights, LossWeights)
    as_instance("cfg", cfg, SchedulerConfig)
    loss_t = as_float("loss_t", loss_t)
    if loss_prev is not None:
        loss_prev = as_float("loss_prev", loss_prev)
    with raising("reward"):
        return _reward(weights.alpha, weights.beta, cfg, loss_t, loss_prev)


def _cosine(pair, cfg: SchedulerConfig):
    """Cosine between a float array weight pair and cfg's target."""
    return float(pair.dot(cfg._target) / (np.sqrt(pair.dot(pair)) * cfg._target_norm))


def _reward(alpha, beta, cfg, loss_t, loss_prev):
    """reward() on checked input."""
    first = _cosine(np.array([alpha, beta]), cfg)
    if loss_prev is None:
        return first
    return first + cfg.explore_weight * (1.0 / max(abs(loss_t - loss_prev), 1.0 / REWARD_CAP))


def _net(states, w1, b1, w2, b2):
    """One head's output for a state or a row of states, and its hidden
    activations.  Here, in _net_grads and in _cosine the products are
    ndarray.dot calls, for the reason losses gives where it defines
    _matmul."""
    h = np.tanh(states.dot(w1) + b1)
    return h.dot(w2) + b2, h


def _net_grads(states, h, w2, g_out):
    """Gradients (w1, b1, w2, b2) of one head, from _net's hidden
    activations h and the loss gradient g_out of its output, of shape
    (n, 2) or (n,)."""
    # a 1-D output enters as a column, so the (n, 1) by (1, hidden)
    # product is one multiplication per entry
    n, hidden = h.shape
    g_h = g_out.reshape(n, -1).dot(w2.reshape(hidden, -1).T) * (1.0 - h**2)
    return states.T.dot(g_h), g_h.sum(axis=0), h.T.dot(g_out), g_out.sum(axis=0)


def _squashed_log_prob(z, log_std, action):
    """Log-density of a tanh-squashed action whose Gaussian draw lies z
    standard deviations from the mean."""
    gauss = np.add.reduce(-0.5 * z**2 - log_std - 0.5 * _LOG_2PI, axis=-1)
    correction = np.add.reduce(np.log(1.0 - action**2 + _SQUASH_EPS), axis=-1)
    return gauss - correction


def policy_act(policy: PolicyParams, state, rng: np.random.Generator):
    """Sample a squashed action for one state.

    Returns (action, log_prob, value); deterministic given the rng.
    """
    as_instance("policy", policy, PolicyParams)
    state = as_array("state", state, (policy.state_dim,))
    with raising("policy_act"):
        return _act(policy, state, rng.standard_normal(2))


def _act(policy: PolicyParams, state: np.ndarray, noise: np.ndarray):
    """policy_act on a checked state, with its two standard normals given."""
    mu, _ = _net(state, policy.w1, policy.b1, policy.w2, policy.b2)
    raw = mu + policy._std * noise
    action = np.tanh(raw)
    log_prob = float(_squashed_log_prob((raw - mu) / policy._std, policy._log_std, action))
    value, _ = _net(state, policy.vw1, policy.vb1, policy.vw2, policy.vb2)
    return action, log_prob, float(value)


def ppo_update(policy: PolicyParams, buffer, cfg: SchedulerConfig):
    """One clipped-surrogate update over a full buffer (single epoch,
    plain gradient step).  Returns (new_policy, stats).

    Advantages are discounted reward-to-go minus the stored value
    estimates, normalized over the buffer.  The value network regresses
    toward the returns; it shares no parameters with the action mean, so
    a zero-advantage buffer leaves the action distribution untouched.
    """
    as_instance("policy", policy, PolicyParams)
    as_instance("cfg", cfg, SchedulerConfig)
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
    # _ppo_step's arrays, one row per transition
    columns = (np.array([getattr(tr, name) for tr in buffer])
               for name in ("state", "action", "reward", "log_prob", "value"))
    with raising("ppo_update"):
        return _ppo_step(policy, *columns)


def _ppo_step(policy: PolicyParams, states, actions, rewards, old_logp, values):
    """ppo_update on a checked buffer held as arrays, one row per step."""
    n = len(rewards)
    # reward-to-go, each later reward weighted by one more factor of DISCOUNT
    returns = np.empty(n)
    acc = 0.0
    for t in range(n - 1, -1, -1):
        acc = rewards[t] + DISCOUNT * acc
        returns[t] = acc
    adv = returns - values
    adv = (adv - adv.mean()) / (adv.std() + _ADV_EPS)

    log_std, std = policy._log_std, policy._std
    mu, h = _net(states, policy.w1, policy.b1, policy.w2, policy.b2)
    raw = np.arctanh(np.clip(actions, -_ATANH_LIMIT, _ATANH_LIMIT))
    z = (raw - mu) / std
    new_logp = _squashed_log_prob(z, log_std, actions)
    ratio = np.exp(new_logp - old_logp)

    # the clipped surrogate min(r A, clip(r) A); the gradient flows only
    # through samples where the unclipped branch wins
    unclipped = ratio * adv
    objective = np.minimum(unclipped, np.clip(ratio, 1.0 - CLIP_EPS, 1.0 + CLIP_EPS) * adv)
    active = unclipped <= objective
    dl_dlogp = -(active * unclipped) / n

    g_mu = dl_dlogp[:, None] * (z / std)
    g_log_std = np.sum(dl_dlogp[:, None] * (z**2 - 1.0), axis=0)

    v_pred, hv = _net(states, policy.vw1, policy.vb1, policy.vw2, policy.vb2)
    v_err = v_pred - returns

    # the eight network fields in _policy_layout order, then log_std
    grads = _net_grads(states, h, policy.w2, g_mu) + _net_grads(states, hv, policy.vw2, v_err / n)
    layout = _policy_layout(policy.state_dim, policy.hidden)
    new_policy = PolicyParams(
        *[getattr(policy, name) - LEARNING_RATE * g for (name, _), g in zip(layout, grads)],
        np.clip(log_std - LEARNING_RATE * g_log_std, LOG_STD_MIN, LOG_STD_MAX),
    )
    stats = {
        "policy_loss": -float(objective.mean()),
        "value_loss": 0.5 * float(np.mean(v_err**2)),
        "clip_fraction": float(np.mean(~active)),
        "mean_ratio": float(ratio.mean()),
    }
    return new_policy, stats


def _policy_layout(state_dim: int, hidden: int):
    """(field, shape) of each PolicyParams field, in field order."""
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
