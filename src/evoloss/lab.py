"""Synthetic two-view training loop driven by the weight scheduler.

Data are Gaussian latents observed through two independently-noised
views; the encoder is a single linear map trained by plain gradient
descent on the weighted two-view loss, while the scheduler's policy
picks the weights step by step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import _read_only
from .errors import ValidationError, as_array, as_float, as_int, raising
from .kvfile import repr_fields, write_rows
# train_episode fuses the public step functions imported here; they stay
# lab attributes because evobench's traced cli_files run wraps them here.
from .losses import _ensemble, barlow_twins, info_nce, loss_workspace
from .scheduler import (
    PolicyParams,
    SchedulerConfig,
    Transition,
    _act,
    _ppo_step,
    _reward,
    _weights,
    init_policy,
    map_action,
    observe_state,
    policy_act,
    ppo_update,
    reward,
)

# np.dot, as the method ndarray.dot, makes the products: on 2-D operands
# it makes np.matmul's BLAS call, with the same bits, without matmul's
# gufunc dispatch.  On 3-D or more it is not matmul; losses says more
# where it defines its _matmul.
_add, _subtract, _multiply, _divide, _matmul = (
    np.add, np.subtract, np.multiply, np.divide, np.ndarray.dot)
_add_reduce = np.add.reduce

LOG_COLUMNS = ("step", "alpha", "beta", "reward", "loss_total", "loss_gen", "loss_dis")


@dataclass(frozen=True)
class LabConfig:
    steps: int
    input_dim: int = 16
    feature_dim: int = 8
    batch_size: int = 32
    noise_scale: float = 0.1
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("steps", 1), ("input_dim", 1), ("feature_dim", 2),
                              ("batch_size", 2), ("seed", 0)):
            object.__setattr__(self, name, as_int(name, getattr(self, name), minimum))
        for name, rule in (("noise_scale", "nonnegative"), ("learning_rate", "positive")):
            object.__setattr__(self, name, as_float(name, getattr(self, name), rule))


@dataclass(frozen=True)
class TrainingLog:
    """Per-step records (LOG_COLUMNS order) plus the trained artifacts."""

    records: np.ndarray
    final_weights: np.ndarray
    policy: PolicyParams
    #: ppo_update's stats dict for each policy update, in order.
    updates: tuple[dict, ...] = ()

    @property
    def alphas(self) -> np.ndarray:
        return self.records[:, 1]

    @property
    def betas(self) -> np.ndarray:
        return self.records[:, 2]

    @property
    def rewards(self) -> np.ndarray:
        return self.records[:, 3]

    @property
    def losses(self) -> np.ndarray:
        return self.records[:, 4]


def gen_two_view_batch(rng: np.random.Generator, cfg: LabConfig):
    """Two noisy views of one batch of Gaussian latents."""
    latent = rng.standard_normal((cfg.batch_size, cfg.input_dim))
    with raising("gen_two_view_batch"):
        x1 = latent + cfg.noise_scale * rng.standard_normal(latent.shape)
        x2 = latent + cfg.noise_scale * rng.standard_normal(latent.shape)
    return x1, x2


def encoder_forward(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Linear encoder: one matrix, rows of x mapped to feature rows."""
    weights = as_array("weights", weights, (None, None))
    x = as_array("x", x, (None, weights.shape[0]))
    with raising("encoder_forward"):
        return x.dot(weights)


def init_encoder(rng: np.random.Generator, cfg: LabConfig) -> np.ndarray:
    return rng.normal(
        0.0, 1.0 / math.sqrt(cfg.input_dim), (cfg.input_dim, cfg.feature_dim)
    )


def train_episode(
    cfg: LabConfig,
    sched_cfg: SchedulerConfig | None = None,
    initial_policy: PolicyParams | None = None,
) -> TrainingLog:
    """Run one scheduled training episode.

    Per step: sample a two-view batch, encode, observe the batch-mean
    state, sample an action, map it to loss weights, take one encoder
    gradient step on the weighted loss, score the reward against the
    previous loss, and store the transition; the policy updates every
    update_period steps.  Fully deterministic given cfg.seed.

    Each step does the work of gen_two_view_batch, encoder_forward,
    observe_state, policy_act, map_action, info_nce, barlow_twins,
    reward and ppo_update without their per-call checks, with the same
    arithmetic on the same random stream, so the result equals those
    calls bit for bit.  The configs check their fields when they are
    made and the policy's size is checked here, once; a non-finite loss
    or policy output raises ValidationError at its step.

    A step allocates no array of the batch's size: the draws, the two
    views, their features and the encoder's gradient have buffers made
    once per episode, and both losses run in one loss_workspace made from
    batch_size and feature_dim, at the losses' default temperature and
    epsilon.  The loss gradient g_z lives in that workspace, so it is
    valid only until the next step's losses.  The policy's clipped
    log_std and its exp, and the target's norm, are made once by the
    PolicyParams and the SchedulerConfig that hold them.
    """
    sched_cfg = sched_cfg or SchedulerConfig()
    rng = np.random.default_rng(cfg.seed)
    weights = init_encoder(rng, cfg)
    policy = initial_policy or init_policy(cfg.feature_dim, rng)
    if policy.state_dim != cfg.feature_dim:
        raise ValidationError(
            f"policy expects state size {policy.state_dim}, lab produces {cfg.feature_dim}"
        )
    records = np.empty((cfg.steps, len(LOG_COLUMNS)))
    b, period = cfg.batch_size, sched_cfg.update_period
    shape = (b, cfg.input_dim)
    n = b * cfg.input_dim
    # both views encoded into one array, so the state is its column mean
    # and the loss kernels take it stacked as (2, b, feature_dim)
    z = np.empty((2 * b, cfg.feature_dim))
    z1, z2 = z[:b], z[b:]
    # the draws of gen_two_view_batch, then policy_act's two normals
    draw = np.empty(3 * n + 2)
    latent, noise1, noise2 = draw[: 3 * n].reshape(3, *shape)
    x1, x2 = np.empty((2, *shape))
    grads = np.empty((2, cfg.input_dim, cfg.feature_dim))
    views = z.reshape(2, b, cfg.feature_dim)
    states = np.empty((period, cfg.feature_dim))
    actions = np.empty((period, 2))
    rewards = np.empty(period)
    log_probs = np.empty(period)
    values = np.empty(period)
    updates = []
    # the loop's constant operands, as in _kernels: read-only 0-d arrays
    # made once, where a Python number is converted on every call
    noise_scale, learning_rate = _read_only(cfg.noise_scale), _read_only(cfg.learning_rate)
    act_noise = draw[3 * n :]
    x1_t, x2_t = x1.T, x2.T
    work = loss_workspace(b, cfg.feature_dim)
    loss_prev: float | None = None
    try:
        # an overflow would freeze both losses at zero gradient, and an
        # invalid operation or a division by zero leaves NaN or inf behind;
        # stop there
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for step in range(cfg.steps):
                rng.standard_normal(out=draw)
                _add(latent, _multiply(noise_scale, noise1, x1), x1)
                _add(latent, _multiply(noise_scale, noise2, x2), x2)
                _matmul(x1, weights, z1)
                _matmul(x2, weights, z2)
                k = step % period
                state = states[k]
                _divide(_add_reduce(z, 0, None, state), work.two_n, state)
                action, log_prob, value = _act(policy, state, act_noise)
                alpha, beta = _weights(*action.tolist(), sched_cfg)
                loss, loss_gen, loss_dis, g_z = _ensemble(views, alpha, beta, work)
                if not math.isfinite(loss + log_prob + value):
                    raise ValidationError(
                        f"training diverged at step {step}: loss {loss!r}, "
                        f"log_prob {log_prob!r}, value {value!r}"
                    )
                _matmul(x1_t, g_z[0], grads[0])
                _matmul(x2_t, g_z[1], grads[1])
                g_w = _add(grads[0], grads[1], grads[0])
                _subtract(weights, _multiply(learning_rate, g_w, g_w), weights)
                r = _reward(alpha, beta, sched_cfg, loss, loss_prev)
                loss_prev = loss
                actions[k] = action
                rewards[k] = r
                log_probs[k] = log_prob
                values[k] = value
                if k == period - 1:
                    policy, stats = _ppo_step(policy, states, actions, rewards, log_probs, values)
                    updates.append(stats)
                records[step] = (step, alpha, beta, r, loss, loss_gen, loss_dis)
    except FloatingPointError as exc:
        raise ValidationError(f"training diverged at step {step}: {exc}") from None
    return TrainingLog(records, weights, policy, tuple(updates))


def write_training_log(log: TrainingLog, path) -> None:
    """Per-step CSV in LOG_COLUMNS order, written like write_trajectories_csv."""
    records = log.records
    row = [lambda lo, hi: map(str, map(int, records[lo:hi, 0].tolist()))]
    for j in range(1, len(LOG_COLUMNS)):
        row += [",", repr_fields(records[:, j])]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(LOG_COLUMNS) + "\n")
        write_rows(fh, len(records), row + ["\n"])


def save_encoder_weights(weights: np.ndarray, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# encoder weights {weights.shape[0]} {weights.shape[1]}\n"
                 + "".join([f"{v!r}\n" for v in weights.ravel().tolist()]))
