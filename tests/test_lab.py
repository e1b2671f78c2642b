"""Synthetic two-view training loop: data generation, encoder gradients,
scheduler integration, determinism, and log output."""

import dataclasses
import functools
import math
import time

import numpy as np
import pytest

from evoloss import (
    LabConfig,
    SchedulerConfig,
    TrainingLog,
    ValidationError,
    barlow_twins,
    encoder_forward,
    gen_two_view_batch,
    info_nce,
    init_policy,
    train_episode,
    write_training_log,
)
from evoloss import lab
from evoloss.kvfile import BLOCK_ROWS
from evoloss.lab import LOG_COLUMNS, init_encoder, save_encoder_weights
from evoloss.losses import loss_workspace
from evoloss.scheduler import LOG_STD_INIT, LOG_STD_MAX, LOG_STD_MIN, REWARD_CAP, PolicyParams

from helpers import (
    AWKWARD_FLOATS,
    cosine,
    reference_save_encoder_weights,
    reference_write_training_log,
    replay_train_episode,
)


def pinned_policy(state_dim, weights, hidden=4):
    """Policy that (almost) deterministically maps to the given weights."""
    mean = np.arctanh(np.asarray(weights, dtype=float) - 0.5)
    return PolicyParams(
        w1=np.zeros((state_dim, hidden)),
        b1=np.zeros(hidden),
        w2=np.zeros((hidden, 2)),
        b2=mean,
        vw1=np.zeros((state_dim, hidden)),
        vb1=np.zeros(hidden),
        vw2=np.zeros(hidden),
        vb2=0.0,
        log_std=np.full(2, -5.0),
    )


def test_lab_config_defaults():
    """Criteria 8 and 9 train at these defaults; the losses' own knobs
    are not config fields."""
    assert [(f.name, f.default) for f in dataclasses.fields(LabConfig)] == [
        ("steps", dataclasses.MISSING),
        ("input_dim", 16),
        ("feature_dim", 8),
        ("batch_size", 32),
        ("noise_scale", 0.1),
        ("learning_rate", 0.01),
        ("seed", 0),
    ]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"steps": 0},
        {"steps": 10, "input_dim": 0},
        {"steps": 10, "feature_dim": 1},
        {"steps": 10, "batch_size": 1},
        {"steps": 10, "noise_scale": -0.1},
        {"steps": 10, "learning_rate": 0.0},
        {"steps": 2.5},
        {"steps": math.nan},
        {"steps": math.inf},
        {"steps": 10, "seed": -math.inf},
        {"steps": 10, "seed": -1},  # numpy's generator raised ValueError
    ],
)
def test_lab_config_validation(kwargs):
    with pytest.raises(ValidationError):
        LabConfig(**kwargs)


def test_lab_config_stores_integer_fields_as_int():
    cfg = LabConfig(steps=10.0, input_dim=4.0, feature_dim=2.0, batch_size=8.0, seed=3.0)
    for name in ("steps", "input_dim", "feature_dim", "batch_size", "seed"):
        assert type(getattr(cfg, name)) is int


def test_gen_two_view_batch_zero_noise_gives_identical_views():
    cfg = LabConfig(steps=1, noise_scale=0.0)
    x1, x2 = gen_two_view_batch(np.random.default_rng(0), cfg)
    np.testing.assert_array_equal(x1, x2)
    assert x1.shape == (cfg.batch_size, cfg.input_dim)


def test_gen_two_view_batch_noise_variance():
    cfg = LabConfig(steps=1, batch_size=2000, input_dim=4, noise_scale=0.1)
    x1, x2 = gen_two_view_batch(np.random.default_rng(1), cfg)
    # the difference of the two views has variance 2 * noise_scale^2
    var = float(np.var(x1 - x2))
    assert abs(var - 0.02) < 0.002


def test_encoder_forward():
    w = np.eye(3)
    x = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(encoder_forward(w, x), x)
    np.testing.assert_array_equal(encoder_forward(np.zeros((3, 2)), x), np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        encoder_forward(np.zeros((4, 2)), x)


def test_init_encoder_shape_and_scale():
    cfg = LabConfig(steps=1, input_dim=100, feature_dim=6)
    w = init_encoder(np.random.default_rng(0), cfg)
    assert w.shape == (100, 6)
    assert abs(float(w.std()) - 0.1) < 0.02  # 1/sqrt(input_dim)


def test_encoder_weight_gradient_matches_finite_differences(rng):
    """The chain rule used for the weight update: dL/dW = x1'g1 + x2'g2."""
    x1 = rng.standard_normal((6, 4))
    x2 = rng.standard_normal((6, 4))
    w = rng.standard_normal((4, 3)) * 0.5
    alpha, beta = 0.6, 0.4

    def weighted_loss(z1, z2):
        gen, (gi1, gi2) = info_nce(z1, z2)
        dis, (gb1, gb2) = barlow_twins(z1, z2)
        return alpha * gen + beta * dis, (alpha * gi1 + beta * gb1, alpha * gi2 + beta * gb2)

    def loss_of(wm):
        return weighted_loss(x1 @ wm, x2 @ wm)[0]

    _, (g1, g2) = weighted_loss(x1 @ w, x2 @ w)
    analytic = x1.T @ g1 + x2.T @ g2
    numeric = np.zeros_like(w)
    h = 1e-6
    for idx in np.ndindex(w.shape):
        wp = w.copy()
        wp[idx] += h
        wm_ = w.copy()
        wm_[idx] -= h
        numeric[idx] = (loss_of(wp) - loss_of(wm_)) / (2.0 * h)
    err = np.linalg.norm(numeric - analytic) / np.linalg.norm(analytic)
    assert err < 1e-4


def test_train_episode_with_pinned_policy():
    """A near-deterministic policy pins the logged weights, so every step's
    weight pair points along the pinned direction."""
    target_weights = (0.35, 0.37)
    cfg = LabConfig(steps=50, input_dim=8, feature_dim=4, batch_size=16, seed=9)
    sched = SchedulerConfig(update_period=1000)  # never updates in 50 steps
    log = train_episode(cfg, sched, initial_policy=pinned_policy(4, target_weights))
    assert log.records.shape == (50, len(LOG_COLUMNS))
    np.testing.assert_array_equal(log.records[:, 0], np.arange(50))
    assert abs(float(log.alphas.mean()) - 0.35) < 5e-3
    assert abs(float(log.betas.mean()) - 0.37) < 5e-3
    for alpha, beta in zip(log.alphas, log.betas):
        assert cosine((alpha, beta), target_weights) > 0.998
    # the total is the weighted sum of the component losses
    np.testing.assert_allclose(
        log.records[:, 4],
        log.alphas * log.records[:, 5] + log.betas * log.records[:, 6],
        rtol=1e-12,
    )


def test_train_episode_loss_decreases():
    cfg = LabConfig(steps=600, seed=1)
    log = train_episode(cfg)
    early = float(log.losses[:100].mean())
    late = float(log.losses[-100:].mean())
    assert late < early


def test_train_episode_rewards_use_previous_loss():
    cfg = LabConfig(steps=5, input_dim=6, feature_dim=3, batch_size=8, seed=4)
    sched = SchedulerConfig(update_period=100)
    log = train_episode(cfg, sched)
    # step 0 has no stability bonus, so its reward is a bare cosine
    assert -1.0 <= log.rewards[0] <= 1.0
    assert np.all(log.rewards[1:] >= -1.0)
    assert np.all(log.rewards <= 1.0 + sched.explore_weight * REWARD_CAP)


def test_train_episode_deterministic():
    cfg = LabConfig(steps=120, input_dim=8, feature_dim=4, batch_size=8, seed=11)
    sched = SchedulerConfig(update_period=50)
    a = train_episode(cfg, sched)
    b = train_episode(cfg, sched)
    np.testing.assert_array_equal(a.records, b.records)
    np.testing.assert_array_equal(a.final_weights, b.final_weights)
    np.testing.assert_array_equal(a.policy.w1, b.policy.w1)
    np.testing.assert_array_equal(a.policy.log_std, b.policy.log_std)
    # the policy updated at steps 50 and 100
    assert not np.array_equal(a.policy.vw2, init_policy(4, np.random.default_rng(11)).vw2)


def test_train_episode_seed_changes_run():
    cfg1 = LabConfig(steps=30, input_dim=6, feature_dim=3, batch_size=8, seed=0)
    cfg2 = LabConfig(steps=30, input_dim=6, feature_dim=3, batch_size=8, seed=1)
    a = train_episode(cfg1)
    b = train_episode(cfg2)
    assert not np.array_equal(a.records, b.records)


def test_train_episode_rejects_mismatched_policy():
    cfg = LabConfig(steps=5, feature_dim=4)
    wrong = init_policy(5, np.random.default_rng(0))
    with pytest.raises(ValidationError, match="state size"):
        train_episode(cfg, initial_policy=wrong)


def test_write_training_log_format(tmp_path):
    cfg = LabConfig(steps=8, input_dim=6, feature_dim=3, batch_size=8, seed=2)
    log = train_episode(cfg)
    path = tmp_path / "log.csv"
    write_training_log(log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(LOG_COLUMNS)
    assert len(lines) == 9
    first = lines[1].split(",")
    assert first[0] == "0"  # integral step column
    assert float(first[1]) == log.alphas[0]
    assert float(first[4]) == log.losses[0]
    # rewriting produces identical bytes
    again = tmp_path / "log2.csv"
    write_training_log(log, again)
    assert path.read_bytes() == again.read_bytes()


def assert_same_file_bytes(log, tmp_path):
    """The log and weights files equal what the csv-module writers write."""
    write_training_log(log, tmp_path / "log.csv")
    reference_write_training_log(log, tmp_path / "reference.csv")
    assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    save_encoder_weights(log.final_weights, tmp_path / "weights.txt")
    reference_save_encoder_weights(log.final_weights, tmp_path / "reference.txt")
    assert (tmp_path / "weights.txt").read_bytes() == (tmp_path / "reference.txt").read_bytes()


def test_writers_bytes_on_awkward_floats(tmp_path):
    rng = np.random.default_rng(5)
    n = 10_000  # spans several of write_training_log's writes
    records = np.empty((n, len(LOG_COLUMNS)))
    records[:, 0] = np.arange(n)
    records[:, 1:] = rng.standard_normal((n, 6)) * 10.0 ** rng.integers(-300, 300, (n, 6))
    records[: len(AWKWARD_FLOATS), 1:] = np.array(AWKWARD_FLOATS)[:, None]
    weights = np.array(AWKWARD_FLOATS).reshape(4, 2)
    policy = init_policy(3, rng)
    assert_same_file_bytes(TrainingLog(records, weights, policy), tmp_path)
    one_row = TrainingLog(records[[10]], np.array([[5e-324]]), policy)
    assert_same_file_bytes(one_row, tmp_path)


@pytest.mark.parametrize("n", [BLOCK_ROWS, BLOCK_ROWS + 1, 10_000])
def test_write_training_log_bytes_across_block_bounds(tmp_path, n):
    """Rows are formatted BLOCK_ROWS at a time: a log exactly one block
    long, one row longer, and 10 000 rows."""
    rng = np.random.default_rng(n)
    records = np.column_stack((np.arange(n), rng.standard_normal((n, len(LOG_COLUMNS) - 1))))
    log = TrainingLog(records, np.ones((1, 1)), init_policy(3, rng))
    write_training_log(log, tmp_path / "log.csv")
    reference_write_training_log(log, tmp_path / "reference.csv")
    assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_writers_bytes_on_train_episode(tmp_path):
    cfg = LabConfig(steps=300, input_dim=6, feature_dim=3, batch_size=8, seed=4)
    assert_same_file_bytes(train_episode(cfg), tmp_path)


def test_train_episode_huge_learning_rate_raises_at_the_overflow():
    """The first update scales the weights to about 1e300, and z * z then
    overflows; the run used to go on with the losses frozen at ln 8 and 3."""
    cfg = LabConfig(steps=50, input_dim=4, feature_dim=3, batch_size=8, learning_rate=1e300)
    with pytest.raises(ValidationError, match="training diverged at step 1: overflow"):
        train_episode(cfg)


def test_train_episode_raises_at_an_invalid_value(monkeypatch):
    """NaN from an invalid operation (inf * 0 in the Barlow Twins
    gradient) stops the run like an overflow; it used to go on under a
    RuntimeWarning.  Only a workspace with an epsilon this large, which
    no config sets, reaches it."""
    monkeypatch.setattr(lab, "loss_workspace", functools.partial(loss_workspace, epsilon=1.7e308))
    cfg = LabConfig(steps=12, input_dim=4, feature_dim=3, batch_size=4, noise_scale=1.0)
    with pytest.raises(
        ValidationError, match="training diverged at step 0: invalid value encountered in matmul"
    ):
        train_episode(cfg, SchedulerConfig(update_period=50))


def test_train_episode_time_scales_linearly():
    """Cost per step is constant, so doubling the steps roughly doubles
    the wall time (generous bounds to tolerate scheduler jitter)."""
    base = dict(input_dim=8, feature_dim=4, batch_size=16, seed=0)
    train_episode(LabConfig(steps=60, **base))  # warmup

    def timed(steps):
        t0 = time.perf_counter()
        train_episode(LabConfig(steps=steps, **base))
        return time.perf_counter() - t0

    # multiples of the update period, so that both sizes make 5 PPO
    # updates per 1000 steps; interleaved, so that a slow spell of the
    # host hits both sizes alike
    period = SchedulerConfig().update_period
    assert 1000 % period == 0
    t1000 = t2000 = math.inf
    for _ in range(5):
        t1000 = min(t1000, timed(1000))
        t2000 = min(t2000, timed(2000))
    assert 1.5 <= t2000 / t1000 <= 2.6


def assert_same_log(log, ref):
    """Records, final weights, every policy field and the update stats,
    compared bit for bit."""
    assert log.records.tobytes() == ref.records.tobytes()
    assert log.final_weights.tobytes() == ref.final_weights.tobytes()
    for field in dataclasses.fields(PolicyParams):
        a = np.asarray(getattr(log.policy, field.name))
        b = np.asarray(getattr(ref.policy, field.name))
        assert a.tobytes() == b.tobytes(), field.name
    assert log.updates == ref.updates


CRITERION_8_SCHED = SchedulerConfig(target=(0.8333, 0.8333))
#: A replay case whose log_std moves at each of its four updates, so a
#: clipped log_std or std kept from before an update changes the actions.
LOG_STD_MOVES = (
    LabConfig(steps=120, input_dim=6, feature_dim=3, batch_size=8, seed=9),
    SchedulerConfig(update_period=30),
)


@pytest.mark.parametrize(
    "cfg,sched,kwargs",
    [
        *[(LabConfig(steps=5000, seed=s), CRITERION_8_SCHED, {}) for s in range(4)],
        # criterion 9's CLI config
        (
            LabConfig(steps=400, input_dim=8, feature_dim=4, batch_size=16, seed=11),
            SchedulerConfig(update_period=100),
            {},
        ),
        (
            LabConfig(steps=200, input_dim=1, feature_dim=2, batch_size=2, seed=3),
            SchedulerConfig(update_period=1),
            {},
        ),
        (LabConfig(steps=300, noise_scale=0.0, seed=5), SchedulerConfig(update_period=7), {}),
        (
            LabConfig(steps=60, input_dim=5, feature_dim=3, batch_size=4, seed=2),
            SchedulerConfig(update_period=25, center=0.3),
            {"initial_policy": pinned_policy(3, (0.2, 0.5))},
        ),
        # log_std outside [LOG_STD_MIN, LOG_STD_MAX], clipped on both sides
        (
            LabConfig(steps=90, input_dim=5, feature_dim=3, batch_size=6, seed=8),
            SchedulerConfig(update_period=30),
            {"initial_policy": dataclasses.replace(
                pinned_policy(3, (0.4, 0.6)),
                log_std=np.array([LOG_STD_MIN - 2.0, LOG_STD_MAX + 1.0]),
            )},
        ),
        (*LOG_STD_MOVES, {}),
    ],
    ids=[
        *[f"criterion8-seed{s}" for s in range(4)],
        "criterion9",
        "period1-tiny",
        "noiseless-period7",
        "pinned-knobs",
        "clipped-log-std",
        "log-std-moves",
    ],
)
def test_train_episode_equals_public_function_replay(cfg, sched, kwargs):
    """The fused loop makes the same floating-point operations on the same
    random stream as the public, checked functions called one by one."""
    assert_same_log(train_episode(cfg, sched, **kwargs), replay_train_episode(cfg, sched, **kwargs))


def test_log_std_moves_at_each_update_of_the_log_std_moves_case():
    cfg, sched = LOG_STD_MOVES
    period = sched.update_period
    assert cfg.steps == 4 * period
    # an episode cut at k * period ends with the policy of its k-th update
    seen = {np.full(2, LOG_STD_INIT).tobytes()} | {
        train_episode(dataclasses.replace(cfg, steps=k * period), sched).policy.log_std.tobytes()
        for k in range(1, 5)
    }
    assert len(seen) == 5


def test_train_episode_keeps_each_ppo_update_stats():
    cfg = LabConfig(steps=130, input_dim=6, feature_dim=3, batch_size=8, seed=5)
    sched = SchedulerConfig(update_period=40)
    log = train_episode(cfg, sched)
    ref = replay_train_episode(cfg, sched)
    # updates after steps 40, 80 and 120; the last 10 steps fill no buffer
    assert len(log.updates) == 3
    assert log.updates == ref.updates
    for stats in log.updates:
        assert set(stats) == {"policy_loss", "value_loss", "clip_fraction", "mean_ratio"}


def test_training_log_updates_default_to_empty():
    policy = init_policy(2, np.random.default_rng(0))
    log = TrainingLog(np.empty((0, len(LOG_COLUMNS))), np.zeros((3, 2)), policy)
    assert log.updates == ()


@pytest.mark.parametrize(
    "fields",
    [{"b1": np.full(4, 30.0), "w2": np.full((4, 2), 1e308)},
     {"vb1": np.full(4, 30.0), "vw2": np.full(4, 1e308)}],
)
def test_train_episode_rejects_non_finite_policy_output(fields):
    """An action mean or value estimate that overflows from finite
    weights stops the run at its step; PolicyParams rejects NaN weights."""
    policy = dataclasses.replace(pinned_policy(3, (0.4, 0.6)), **fields)
    cfg = LabConfig(steps=5, input_dim=4, feature_dim=3, batch_size=8)
    with pytest.raises(ValidationError, match="diverged at step 0"):
        train_episode(cfg, initial_policy=policy)
