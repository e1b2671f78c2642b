"""Weight-mapping, reward shaping, the Gaussian policy, and the clipped
policy update."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from evoloss import (
    LossWeights,
    PolicyParams,
    SchedulerConfig,
    Transition,
    ValidationError,
    init_policy,
    map_action,
    observe_state,
    policy_act,
    ppo_update,
    reward,
)
from evoloss.scheduler import (
    CLIP_EPS,
    LEARNING_RATE,
    LOG_STD_INIT,
    LOG_STD_MAX,
    LOG_STD_MIN,
    REWARD_CAP,
    WEIGHT_FLOOR,
    _policy_layout,
)

from helpers import cosine, reference_ppo_step, reference_returns


def flat_policy(state_dim, mean, log_std=-5.0, hidden=4):
    """Policy whose action mean is the constant `mean` for every state."""
    return PolicyParams(
        w1=np.zeros((state_dim, hidden)),
        b1=np.zeros(hidden),
        w2=np.zeros((hidden, 2)),
        b2=np.asarray(mean, dtype=float),
        vw1=np.zeros((state_dim, hidden)),
        vb1=np.zeros(hidden),
        vw2=np.zeros(hidden),
        vb2=0.0,
        log_std=np.full(2, float(log_std)),
    )


def rollout(policy, states, reward_fn, rng):
    buffer = []
    for s in states:
        action, logp, value = policy_act(policy, s, rng)
        buffer.append(Transition(s, action, reward_fn(s, action), logp, value))
    return buffer


# ---------------------------------------------------------- configuration


def test_scheduler_config_defaults():
    cfg = SchedulerConfig()
    assert cfg.center == 0.5
    assert cfg.target == (0.85, 0.87)
    assert cfg.update_period == 200


@pytest.mark.parametrize(
    "kwargs",
    [
        {"center": 0.0},
        {"center": -1.0},
        {"explore_weight": -0.1},
        {"update_period": 0},
        {"update_period": 2.5},
        {"target": (0.0, 0.0)},
        {"target": (-0.1, 1.0)},
        {"target": (math.nan, 1.0)},
        # the norm overflowed or the reward divided by zero
        {"target": (1e300, 1e300)},
        {"target": (0.0, 5e-324)},
        {"center": math.inf},
        {"update_period": math.nan},
        {"update_period": math.inf},
        # the stability bonus overflowed to inf, or passed 1e300
        {"explore_weight": 1.7e308},
        {"explore_weight": 1e299},
    ],
)
def test_scheduler_config_validation(kwargs):
    with pytest.raises(ValidationError):
        SchedulerConfig(**kwargs)


def test_scheduler_config_stores_update_period_as_int():
    assert type(SchedulerConfig(update_period=50.0).update_period) is int


def test_derived_values_add_no_field():
    """The stored clipped log_std, std, target array and norm are not
    fields, so no config key or replace argument changes."""
    assert [f.name for f in dataclasses.fields(PolicyParams)] == [
        "w1", "b1", "w2", "b2", "vw1", "vb1", "vw2", "vb2", "log_std"
    ]
    assert [f.name for f in dataclasses.fields(SchedulerConfig)] == [
        "center", "explore_weight", "target", "update_period",
    ]


def test_scheduler_config_target_array_is_read_only():
    cfg = SchedulerConfig(target=(3, 4))
    assert cfg._target.dtype == np.float64 and cfg._target_norm == 5.0
    with pytest.raises(ValueError):
        cfg._target[0] = 1.0


def test_transition_validation():
    with pytest.raises(ValidationError):
        Transition(np.zeros(3), np.zeros(2), math.nan, 0.0, 0.0)
    with pytest.raises(ValidationError):
        Transition(np.array([1.0, math.inf]), np.zeros(2), 0.0, 0.0, 0.0)


# ------------------------------------------------------- state and action


def test_observe_state_is_batch_mean():
    np.testing.assert_array_equal(
        observe_state([[1.0, 2.0], [3.0, 4.0]]), [2.0, 3.0]
    )


def test_observe_state_validation():
    with pytest.raises(ValidationError):
        observe_state(np.zeros(3))
    with pytest.raises(ValidationError):
        observe_state(np.zeros((0, 3)))
    with pytest.raises(ValidationError):
        observe_state([[1.0, math.nan]])


def test_map_action_shifts_by_center():
    cfg = SchedulerConfig()
    w = map_action((-0.125, 0.25), cfg)
    assert (w.alpha, w.beta) == (0.375, 0.75)
    w = map_action((-0.15, -0.13), cfg)
    assert w.alpha == 0.5 - 0.15
    assert w.beta == 0.5 - 0.13


def test_map_action_clamps_and_floors():
    cfg = SchedulerConfig()
    w = map_action((-2.0, 2.0), cfg)
    assert w.alpha == WEIGHT_FLOOR  # clamped to 0, then floored
    assert w.beta == 1.0  # ceiling at 2 * center
    wide = SchedulerConfig(center=2.0)
    w = map_action((3.0, -3.0), wide)
    assert (w.alpha, w.beta) == (4.0, WEIGHT_FLOOR)


def test_map_action_validation():
    cfg = SchedulerConfig()
    with pytest.raises(ValidationError):
        map_action((0.1, 0.2, 0.3), cfg)
    with pytest.raises(ValidationError):
        map_action((math.nan, 0.0), cfg)


# ----------------------------------------------------------------- reward


def test_reward_parallel_weights_score_one():
    cfg = SchedulerConfig()
    assert reward(LossWeights(0.85, 0.87), cfg, 1.0) == 1.0
    assert reward(LossWeights(0.425, 0.435), cfg, 5.0) == pytest.approx(1.0, abs=1e-12)


def test_reward_near_miss_frozen():
    # target (0.85, 0.87) scored against the swapped pair
    r = reward(LossWeights(0.87, 0.85), SchedulerConfig(), 1.0)
    assert r == pytest.approx(0.9997296201162634, abs=1e-15)
    assert abs(r - 0.99973) < 1e-5


def test_reward_first_step_has_no_stability_bonus():
    cfg = SchedulerConfig()
    r0 = reward(LossWeights(0.85, 0.87), cfg, 7.3, loss_prev=None)
    assert r0 == 1.0


def test_reward_stability_bonus_caps_at_reward_cap():
    cfg = SchedulerConfig()
    # identical consecutive losses: denominator floors, bonus hits the cap
    assert reward(LossWeights(0.85, 0.87), cfg, 1.0, 1.0) == 11.0
    # moderate change: plain reciprocal, scaled by the exploration weight
    assert reward(LossWeights(0.85, 0.87), cfg, 1.0, 0.5) == 1.2


def test_stability_bonus_equals_the_two_guard_formula_bit_for_bit():
    """The bonus floors the loss change at 1 / REWARD_CAP, where it once
    floored it at 1e-6 and capped its reciprocal at REWARD_CAP: since
    1.0 / 0.01 == 100.0, the two agree on every change, here 10^6 bit
    patterns spread over all finite doubles and the neighbours of 0.01
    and 1e-6, in numpy, and some of them through reward()."""
    bits = np.random.default_rng(28).integers(0, np.float64(np.inf).view(np.int64), 10**6)
    near = np.array([0.01, 1e-6]).view(np.int64)[:, None] + np.arange(-500, 501)
    delta = np.concatenate([[0, 1], near.ravel(), bits]).view(np.float64)  # 0.0, 5e-324, ...
    assert 0.0 <= delta.min() and delta.max() < np.inf and 0.01 in delta[:2004]
    for explore_weight in (0.0, 0.1, 2.5):
        old = explore_weight * np.minimum(1.0 / np.maximum(delta, 1e-6), 100.0)
        new = explore_weight * (1.0 / np.maximum(delta, 1.0 / REWARD_CAP))
        assert old.tobytes() == new.tobytes()
    weights, cfg = LossWeights(0.3, 0.9), SchedulerConfig(explore_weight=2.5)
    first = reward(weights, cfg, 1.0)
    for d in delta[:3000].tolist():
        assert reward(weights, cfg, d, 0.0) == first + 2.5 * min(1.0 / max(d, 1e-6), 100.0)


def test_reward_reads_the_target_of_a_replaced_config():
    cfg = SchedulerConfig()
    weights = LossWeights(0.5, 1.0)
    reward(weights, cfg, 1.0)
    moved = dataclasses.replace(cfg, target=(1.0, 0.0))
    assert reward(weights, moved, 1.0) == reward(weights, SchedulerConfig(target=(1.0, 0.0)), 1.0)
    assert reward(weights, moved, 1.0) == pytest.approx(0.5 / math.sqrt(1.25), abs=1e-15)


def test_reward_validation():
    cfg = SchedulerConfig()
    with pytest.raises(ValidationError):
        reward(LossWeights(0.5, 0.5), cfg, math.nan)
    with pytest.raises(ValidationError):
        reward(LossWeights(0.5, 0.5), cfg, 1.0, math.inf)


POLICY = init_policy(2, np.random.default_rng(0))
BUFFER = [Transition(np.zeros(2), np.zeros(2), 0.0, 0.0, 0.0)]


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda: reward((0.5, 0.5), SchedulerConfig(), 1.0),
                     "weights must be a LossWeights, got tuple", id="reward-weights"),
        pytest.param(lambda: reward(LossWeights(0.5, 0.5), {"center": 0.5}, 1.0),
                     "cfg must be a SchedulerConfig, got dict", id="reward-cfg"),
        pytest.param(lambda: map_action([0.1, 0.2], (0.5,)),
                     "cfg must be a SchedulerConfig, got tuple", id="map_action-cfg"),
        pytest.param(lambda: ppo_update(POLICY, BUFFER, None),
                     "cfg must be a SchedulerConfig, got NoneType", id="ppo_update-cfg"),
        pytest.param(lambda: ppo_update(dataclasses.asdict(POLICY), BUFFER,
                                        SchedulerConfig(update_period=1)),
                     "policy must be a PolicyParams, got dict", id="ppo_update-policy"),
        pytest.param(lambda: policy_act(None, np.zeros(2), np.random.default_rng(0)),
                     "policy must be a PolicyParams, got NoneType", id="policy_act-policy"),
    ],
)
def test_an_argument_of_the_wrong_type_is_named_in_one_line(call, message):
    """Each call raised a bare AttributeError on the argument's fields."""
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value) == message


@given(
    alpha=st.floats(min_value=1e-3, max_value=1.0),
    beta=st.floats(min_value=1e-3, max_value=1.0),
    loss_t=st.floats(min_value=-100.0, max_value=100.0),
    loss_prev=st.one_of(st.none(), st.floats(min_value=-100.0, max_value=100.0)),
)
def test_reward_bounds(alpha, beta, loss_t, loss_prev):
    cfg = SchedulerConfig()
    r = reward(LossWeights(alpha, beta), cfg, loss_t, loss_prev)
    assert -1.0 - 1e-12 <= r <= 1.0 + cfg.explore_weight * REWARD_CAP + 1e-12


# ----------------------------------------------------------------- policy


def test_init_policy_shapes_and_defaults():
    policy = init_policy(8, np.random.default_rng(0))
    assert policy.state_dim == 8
    assert policy.hidden == 32
    assert policy.w2.shape == (32, 2)
    np.testing.assert_array_equal(policy.b1, 0.0)
    np.testing.assert_array_equal(policy.b2, 0.0)
    np.testing.assert_array_equal(policy.log_std, LOG_STD_INIT)
    with pytest.raises(ValidationError):
        init_policy(0, np.random.default_rng(0))


@pytest.mark.parametrize(
    "state_dim,hidden,digest",
    [
        (3, 2, "c9705090fc0e1bd5da28096442ef32bdd4787acaab279df57f4b6d42eee83250"),
        # 0.01 / sqrt(3) rounds one ulp below init_policy's 0.01 * (1 / sqrt(3))
        (4, 3, "1f5b580a1e953442a9dd5f9577c7a14bb2b9814bf25458bd4f622b6b61978d27"),
        (8, 32, "49d36e60321324c3c23d7421c8edd8bf79d876eef2c784596027fd216051e30a"),
    ],
)
def test_init_policy_bytes_are_pinned(state_dim, hidden, digest):
    """init_policy's draws, their order (w1, then w2, per head) and their
    scales, to the bit: the SHA-256 of every field's bytes in
    _policy_layout order."""
    policy = init_policy(state_dim, np.random.default_rng(7), hidden=hidden)
    sha = hashlib.sha256()
    for name, _ in _policy_layout(state_dim, hidden):
        sha.update(np.asarray(getattr(policy, name)).tobytes())
    assert sha.hexdigest() == digest


def test_policy_act_deterministic_given_rng():
    policy = init_policy(4, np.random.default_rng(7))
    state = np.array([0.1, -0.2, 0.3, 0.0])
    a1 = policy_act(policy, state, np.random.default_rng(99))
    a2 = policy_act(policy, state, np.random.default_rng(99))
    np.testing.assert_array_equal(a1[0], a2[0])
    assert a1[1] == a2[1] and a1[2] == a2[2]
    assert np.all(np.abs(a1[0]) < 1.0)  # squashed


def test_policy_act_tight_std_concentrates_on_mean():
    mean = np.array([0.4, -0.2])
    policy = flat_policy(3, mean, log_std=-5.0)
    rng = np.random.default_rng(11)
    actions = np.array(
        [policy_act(policy, np.zeros(3), rng)[0] for _ in range(200)]
    )
    np.testing.assert_allclose(actions.mean(axis=0), np.tanh(mean), atol=5e-3)
    assert np.abs(actions - np.tanh(mean)).mean() < 0.01


@pytest.mark.parametrize("log_std", [(-9.0, 4.0), (3.5, -6.0)])
def test_policy_act_reads_the_log_std_of_a_replaced_policy(log_std):
    """A replaced log_std beyond both bounds is clipped and exponentiated
    anew, as the reference does from the field itself."""
    policy = init_policy(3, np.random.default_rng(4), hidden=5)
    state = np.array([0.3, -1.2, 0.7])
    policy_act(policy, state, np.random.default_rng(8))
    moved = dataclasses.replace(policy, log_std=np.array(log_std))
    action, log_prob, value = policy_act(moved, state, np.random.default_rng(8))

    noise = np.random.default_rng(8).standard_normal(2)
    clipped = np.clip(np.array(log_std), LOG_STD_MIN, LOG_STD_MAX)
    std = np.exp(clipped)
    mu = np.tanh(state @ policy.w1 + policy.b1) @ policy.w2 + policy.b2
    raw = mu + std * noise
    ref_action = np.tanh(raw)
    z = (raw - mu) / std
    ref_log_prob = (np.add.reduce(-0.5 * z**2 - clipped - 0.5 * math.log(2.0 * math.pi))
                    - np.add.reduce(np.log(1.0 - ref_action**2 + 1e-8)))
    assert action.tobytes() == ref_action.tobytes()
    assert np.float64(log_prob).tobytes() == ref_log_prob.tobytes()
    assert value == policy_act(policy, state, np.random.default_rng(8))[2]


def test_policy_act_stops_on_overflow():
    """The value the fused loop stops on: at the parent this returned
    log_prob nan after two RuntimeWarnings."""
    policy = dataclasses.replace(
        init_policy(4, np.random.default_rng(0), hidden=4),
        b1=np.full(4, 30.0), w2=np.full((4, 2), 1e308),
    )
    with pytest.raises(ValidationError, match="^policy_act diverged: overflow"):
        policy_act(policy, np.zeros(4), np.random.default_rng(0))


def test_policy_act_validation():
    policy = init_policy(4, np.random.default_rng(7))
    with pytest.raises(ValidationError):
        policy_act(policy, np.zeros(3), np.random.default_rng(0))
    with pytest.raises(ValidationError):
        policy_act(policy, np.full(4, math.nan), np.random.default_rng(0))


# ----------------------------------------------------------------- update


def test_ppo_update_requires_full_buffer():
    cfg = SchedulerConfig(update_period=4)
    policy = init_policy(3, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    buffer = rollout(policy, [rng.standard_normal(3) for _ in range(3)],
                     lambda s, a: 1.0, rng)
    with pytest.raises(ValidationError, match="update_period"):
        ppo_update(policy, buffer, cfg)
    with pytest.raises(ValidationError, match="empty"):
        ppo_update(policy, [], cfg)


def test_ppo_update_rejects_mismatched_states():
    cfg = SchedulerConfig(update_period=2)
    policy = init_policy(3, np.random.default_rng(0))
    other = init_policy(5, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    buffer = rollout(other, [rng.standard_normal(5) for _ in range(2)],
                     lambda s, a: 1.0, rng)
    with pytest.raises(ValidationError, match="input size"):
        ppo_update(policy, buffer, cfg)


def test_ppo_update_stops_on_overflow():
    """Rewards of 1e300 overflow the advantage spread and the value loss,
    which at the parent came back as value_loss inf without an error."""
    cfg = SchedulerConfig(update_period=4)
    policy = init_policy(4, np.random.default_rng(0), hidden=4)
    rng = np.random.default_rng(1)
    buffer = [Transition(rng.standard_normal(4), np.zeros(2), 1e300, 0.0, 0.0) for _ in range(4)]
    with pytest.raises(ValidationError, match="^ppo_update diverged: overflow"):
        ppo_update(policy, buffer, cfg)


def test_ppo_update_first_pass_ratio_is_one():
    """Immediately after collection the old and new log-probs coincide."""
    cfg = SchedulerConfig(update_period=32)
    policy = init_policy(4, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    buffer = rollout(policy, [rng.standard_normal(4) for _ in range(32)],
                     lambda s, a: float(a[0]), rng)
    _, stats = ppo_update(policy, buffer, cfg)
    assert stats["mean_ratio"] == pytest.approx(1.0, abs=1e-9)
    assert stats["clip_fraction"] == 0.0
    assert set(stats) == {"policy_loss", "value_loss", "clip_fraction", "mean_ratio"}


def test_ppo_update_zero_advantage_leaves_action_net_untouched():
    """When every stored value equals its return, advantages vanish and
    only the value head may move."""
    cfg = SchedulerConfig(update_period=16)
    policy = init_policy(3, np.random.default_rng(2))
    rng = np.random.default_rng(3)
    states = [rng.standard_normal(3) for _ in range(16)]
    rewards = rng.uniform(-1.0, 1.0, size=16)
    returns = reference_returns(rewards)
    buffer = []
    for s, r, g in zip(states, rewards, returns):
        action, logp, _ = policy_act(policy, s, rng)
        buffer.append(Transition(s, action, float(r), logp, float(g)))
    new_policy, _ = ppo_update(policy, buffer, cfg)
    np.testing.assert_array_equal(new_policy.w1, policy.w1)
    np.testing.assert_array_equal(new_policy.b1, policy.b1)
    np.testing.assert_array_equal(new_policy.w2, policy.w2)
    np.testing.assert_array_equal(new_policy.b2, policy.b2)
    np.testing.assert_array_equal(new_policy.log_std, policy.log_std)
    # the value net still regresses toward the returns
    assert not np.array_equal(new_policy.vw2, policy.vw2)


def test_ppo_update_improves_simple_bandit():
    """Reward = first action component: the mean action's first coordinate
    must climb monotonically across updates."""
    period = 256
    cfg = SchedulerConfig(update_period=period)
    rng = np.random.default_rng(3)
    policy = init_policy(2, rng)
    probes = np.array([[1.0, 0.0], [0.0, 1.0]])
    means = []
    for _ in range(10):
        states = [probes[i % 2] for i in range(period)]
        buffer = rollout(policy, states, lambda s, a: float(a[0]), rng)
        policy, _ = ppo_update(policy, buffer, cfg)
        h = np.tanh(probes @ policy.w1 + policy.b1)
        means.append(float((h @ policy.w2 + policy.b2)[:, 0].mean()))
    assert all(b > a for a, b in zip(means, means[1:]))


@pytest.mark.parametrize("state_dim,hidden,period", [(3, 3, 24), (5, 7, 40), (6, 5, 17)])
def test_ppo_update_equals_reference_bit_for_bit(state_dim, hidden, period):
    """The update against the two heads written out separately; the
    buffer comes from another policy, so ratios spread and both branches
    of the clip act: some ratio above 1 + CLIP_EPS meets a positive
    advantage, and some ratio below 1 - CLIP_EPS a negative one."""
    cfg = SchedulerConfig(update_period=period)
    rng = np.random.default_rng(state_dim * 100 + hidden)
    policy = init_policy(state_dim, rng, hidden=hidden)
    policy = dataclasses.replace(policy, w2=policy.w2 * 60.0, vw2=policy.vw2 * 60.0,
                                 vb2=0.3, log_std=np.array([-0.7, -1.2]))
    collector = init_policy(state_dim, rng, hidden=hidden)
    collector = dataclasses.replace(collector, b2=np.array([0.2, -0.1]))
    buffer = rollout(collector, rng.standard_normal((period, state_dim)),
                     lambda s, a: float(a[0] - s[0] * a[1]), rng)
    new, stats = ppo_update(policy, buffer, cfg)
    ref, ref_stats, ratio, adv = reference_ppo_step(policy, buffer)
    for field in dataclasses.fields(PolicyParams):
        got, want = getattr(new, field.name), getattr(ref, field.name)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field.name
    assert stats == ref_stats
    assert 0.0 < stats["clip_fraction"] < 1.0
    assert ((ratio > 1.0 + CLIP_EPS) & (adv > 0.0)).any()
    assert ((ratio < 1.0 - CLIP_EPS) & (adv < 0.0)).any()


@pytest.mark.parametrize(
    "ratios,policy_loss,clip_fraction",
    [
        # both clipped: 1.2 * A for A > 0 and 0.8 * A for A < 0
        ([1.5, 0.5], -(1.2 - 0.8) / 2, 1.0),
        # only the upper clip acts; r A = -1.5 is the lower branch for A < 0
        ([1.5, 1.5], -(1.2 - 1.5) / 2, 0.5),
        # only the lower clip acts; r A = 0.5 is the lower branch for A > 0
        ([0.5, 0.5], -(0.5 - 0.8) / 2, 0.5),
        # neither clips
        ([0.5, 1.5], -(0.5 - 1.5) / 2, 0.0),
    ],
)
def test_ppo_update_clips_the_surrogate(ratios, policy_loss, clip_fraction):
    """Two samples of one state and action, with normalized advantages
    +1 and -1 and probability ratios set through the stored log-probs:
    the surrogate is min(r A, clip(r, 1 - CLIP_EPS, 1 + CLIP_EPS) A),
    and a sample whose clipped branch wins moves no action parameter."""
    cfg = SchedulerConfig(update_period=2)
    policy = flat_policy(1, [0.1, -0.3], log_std=-1.0)
    state = np.array([0.5])
    action, logp, _ = policy_act(policy, state, np.random.default_rng(0))
    # zero returns, so the advantages are minus the stored values
    buffer = [Transition(state, action, 0.0, logp - math.log(r), v)
              for r, v in zip(ratios, [-1.0, 1.0])]
    new, stats = ppo_update(policy, buffer, cfg)
    assert stats["mean_ratio"] == pytest.approx(np.mean(ratios), rel=1e-12)
    assert stats["policy_loss"] == pytest.approx(policy_loss, rel=1e-6)
    assert stats["clip_fraction"] == clip_fraction
    assert (new.b2 == policy.b2).all() == (clip_fraction == 1.0)
    assert (new.log_std == policy.log_std).all() == (clip_fraction == 1.0)


@pytest.mark.parametrize(
    "rewards,returns",
    [
        ([1.0, 1.0, 1.0], [2.9701, 1.99, 1.0]),
        ([0.0, 0.0, 1.0], [0.9801, 0.99, 1.0]),
        # reward-to-go looks forward only
        ([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
    ],
)
def test_ppo_update_regresses_the_value_head_on_discounted_returns(rewards, returns):
    """With a value head that outputs 0, the value loss is half the mean
    squared return, and the value bias steps by LEARNING_RATE times the
    mean return; each return discounts later rewards by 0.99 a step."""
    cfg = SchedulerConfig(update_period=3)
    policy = flat_policy(2, [0.0, 0.0], log_std=-1.0)
    rng = np.random.default_rng(0)
    rewards = iter(rewards)
    buffer = rollout(policy, rng.standard_normal((3, 2)), lambda s, a: next(rewards), rng)
    new, stats = ppo_update(policy, buffer, cfg)
    returns = np.array(returns)
    assert stats["value_loss"] == pytest.approx(0.5 * np.mean(returns**2), rel=1e-14)
    assert new.vb2 == pytest.approx(LEARNING_RATE * returns.mean(), rel=1e-14)


def test_ppo_update_gradient_matches_central_differences():
    """Each field's step, read back as (old - new) / LEARNING_RATE,
    against central differences of policy_loss + value_loss over the
    same buffer."""
    cfg = SchedulerConfig(update_period=16)
    rng = np.random.default_rng(4)
    policy = init_policy(3, rng, hidden=4)
    policy = dataclasses.replace(policy, w2=policy.w2 * 100.0, vw2=policy.vw2 * 100.0)
    buffer = rollout(policy, rng.standard_normal((16, 3)), lambda s, a: float(a @ s[:2]), rng)
    new, _ = ppo_update(policy, buffer, cfg)

    def loss(field, value):
        _, stats = ppo_update(dataclasses.replace(policy, **{field: value}), buffer, cfg)
        return stats["policy_loss"] + stats["value_loss"]

    step = 1e-6
    for field in dataclasses.fields(PolicyParams):
        old = np.asarray(getattr(policy, field.name), dtype=float)
        analytic = (old - np.asarray(getattr(new, field.name))) / LEARNING_RATE
        numeric = np.empty_like(old)
        for i in np.ndindex(old.shape):
            up, down = old.copy(), old.copy()
            up[i] += step
            down[i] -= step
            numeric[i] = (loss(field.name, up) - loss(field.name, down)) / (2.0 * step)
        # the step's own rounding and the differences' stay below 3e-9
        np.testing.assert_allclose(analytic, numeric, rtol=0.0, atol=1e-8, err_msg=field.name)
        assert np.abs(analytic).max() > 0.1, field.name


# ---------------------------------------------------------- policy fields


@pytest.mark.parametrize(
    "field,shape",
    [("w1", (8,)), ("w1", (8, 32, 1)), ("b1", (31,)), ("w2", (32, 3)), ("b2", (2, 1)),
     ("vw1", (7, 32)), ("vb1", (32, 1)), ("vw2", (32, 1)), ("vb2", (1,)), ("log_std", (3,))],
)
def test_policy_params_checks_each_field_shape(field, shape):
    """A hand-built policy with a wrong shape reached train_episode, which
    raised a bare ValueError or TypeError."""
    policy = init_policy(8, np.random.default_rng(0))
    with pytest.raises(ValidationError, match=f"^{field} "):
        dataclasses.replace(policy, **{field: np.zeros(shape)})


@pytest.mark.parametrize(
    "value,line",
    [(math.nan, "w1 must be finite, got nan"),
     (-math.inf, "w1 must be finite, got -inf"),
     (math.inf, "w1 must be finite, got inf")],
)
def test_policy_params_rejects_non_finite_values(value, line):
    """A policy whose w1 holds a value init_policy never makes is
    rejected with one line that names the field and the value."""
    policy = init_policy(3, np.random.default_rng(0), hidden=2)
    w1 = policy.w1.copy()
    w1[0, 1] = value
    with pytest.raises(ValidationError) as info:
        dataclasses.replace(policy, w1=w1)
    assert str(info.value) == line


def test_cosine_helper_sanity():
    assert cosine((1.0, 0.0), (1.0, 0.0)) == 1.0
    assert abs(cosine((1.0, 0.0), (0.0, 1.0))) < 1e-15
