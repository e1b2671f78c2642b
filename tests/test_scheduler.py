"""Weight-mapping, reward shaping, the Gaussian policy, and the clipped
policy update."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from evoloss import (
    LossWeights,
    PolicyParams,
    SchedulerConfig,
    Transition,
    ValidationError,
    clipped_objective,
    discounted_returns,
    init_policy,
    load_policy,
    map_action,
    observe_state,
    policy_act,
    ppo_update,
    reward,
    save_policy,
)
from evoloss.scheduler import LOG_STD_INIT, WEIGHT_FLOOR

from helpers import cosine


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
        {"prev_loss_scale": -1.0},
        {"update_period": 0},
        {"update_period": 2.5},
        {"target": (0.0, 0.0)},
        {"target": (-0.1, 1.0)},
        {"target": (math.nan, 1.0)},
        # the norm overflowed or the reward divided by zero
        {"target": (1e300, 1e300)},
        {"target": (0.0, 5e-324)},
        {"reward_cap": 0.0},
        {"denom_floor": 0.0},
        {"center": math.inf},
        {"update_period": math.nan},
        {"update_period": math.inf},
        # the stability bonus overflowed to inf
        {"explore_weight": 1.7e308},
        {"explore_weight": 1e299, "reward_cap": 1e10},
    ],
)
def test_scheduler_config_validation(kwargs):
    with pytest.raises(ValidationError):
        SchedulerConfig(**kwargs)


def test_scheduler_config_stores_update_period_as_int():
    assert type(SchedulerConfig(update_period=50.0).update_period) is int


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


def test_reward_prev_loss_scale():
    cfg = SchedulerConfig(prev_loss_scale=2.0)
    # |1.0 - 2.0 * 0.3| = 0.4
    r = reward(LossWeights(0.85, 0.87), cfg, 1.0, 0.3)
    assert r == pytest.approx(1.0 + 0.1 / 0.4, abs=1e-12)


def test_reward_validation():
    cfg = SchedulerConfig()
    with pytest.raises(ValidationError):
        reward(LossWeights(0.5, 0.5), cfg, math.nan)
    with pytest.raises(ValidationError):
        reward(LossWeights(0.5, 0.5), cfg, 1.0, math.inf)


@given(
    alpha=st.floats(min_value=1e-3, max_value=1.0),
    beta=st.floats(min_value=1e-3, max_value=1.0),
    loss_t=st.floats(min_value=-100.0, max_value=100.0),
    loss_prev=st.one_of(st.none(), st.floats(min_value=-100.0, max_value=100.0)),
)
def test_reward_bounds(alpha, beta, loss_t, loss_prev):
    cfg = SchedulerConfig()
    r = reward(LossWeights(alpha, beta), cfg, loss_t, loss_prev)
    assert -1.0 - 1e-12 <= r <= 1.0 + cfg.explore_weight * cfg.reward_cap + 1e-12


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


def test_policy_act_validation():
    policy = init_policy(4, np.random.default_rng(7))
    with pytest.raises(ValidationError):
        policy_act(policy, np.zeros(3), np.random.default_rng(0))
    with pytest.raises(ValidationError):
        policy_act(policy, np.full(4, math.nan), np.random.default_rng(0))


# ----------------------------------------------------------------- update


def test_clipped_objective_frozen_cases():
    assert clipped_objective(1.5, 2.0) == 2.4  # clipped ratio 1.2 wins
    assert clipped_objective(0.5, -1.0) == -0.8  # clipped ratio 0.8 wins
    assert clipped_objective(1.5, -1.0) == -1.5  # unclipped branch is lower
    assert clipped_objective(1.0, 3.0) == 3.0
    np.testing.assert_array_equal(
        clipped_objective([1.5, 0.5], [2.0, -1.0]), [2.4, -0.8]
    )


def test_discounted_returns():
    np.testing.assert_array_equal(
        discounted_returns(np.array([1.0, 1.0, 1.0]), 0.5), [1.75, 1.5, 1.0]
    )
    np.testing.assert_array_equal(
        discounted_returns(np.array([0.0, 0.0, 1.0])), [0.99 * 0.99, 0.99, 1.0]
    )


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
    returns = discounted_returns(rewards)
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


# ------------------------------------------------------------- checkpoint


@pytest.mark.parametrize(
    "field,shape",
    [("w1", (8,)), ("w1", (8, 32, 1)), ("b1", (31,)), ("w2", (32, 3)), ("b2", (2, 1)),
     ("vw1", (7, 32)), ("vb1", (32, 1)), ("vw2", (32, 1)), ("vb2", (1,)), ("log_std", (3,))],
)
def test_policy_params_checks_each_field_shape(field, shape):
    """A hand-built policy with a wrong shape reached train_episode, which
    raised a bare ValueError or TypeError, and save_policy/load_policy
    silently reshaped it."""
    policy = init_policy(8, np.random.default_rng(0))
    with pytest.raises(ValidationError, match=f"^{field} "):
        dataclasses.replace(policy, **{field: np.zeros(shape)})


def test_policy_checkpoint_roundtrip(tmp_path):
    policy = init_policy(6, np.random.default_rng(12), hidden=5)
    path = tmp_path / "policy.txt"
    save_policy(policy, path)
    loaded = load_policy(path)
    for field in ("w1", "b1", "w2", "b2", "vw1", "vb1", "vw2", "log_std"):
        np.testing.assert_array_equal(getattr(loaded, field), getattr(policy, field))
    assert loaded.vb2 == policy.vb2
    assert path.read_text().splitlines()[0] == "evoloss-policy 1 6 5"


@pytest.mark.parametrize(
    "state_dim,hidden,digest",
    [
        (3, 2, "287e1409a2a32ee4cab6f23b68ba7f8f6a9d56e9fae230abf4650a558f333756"),
        (8, 32, "45a828f65338447d4fc38918a60ff2cc38fa0736612829bd5bad050c6d189e23"),
    ],
)
def test_save_policy_bytes_are_pinned(tmp_path, state_dim, hidden, digest):
    """The checkpoint's header, field order (w1, b1, w2, b2, vw1, vb1,
    vw2, vb2, log_std) and float format; a round trip alone would pass
    with the fields in any order."""
    path = tmp_path / "policy.txt"
    save_policy(init_policy(state_dim, np.random.default_rng(7), hidden=hidden), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_load_policy_corruption(tmp_path):
    policy = init_policy(3, np.random.default_rng(0), hidden=2)
    path = tmp_path / "policy.txt"
    save_policy(policy, path)
    lines = path.read_text().splitlines()

    bad = tmp_path / "bad.txt"
    bad.write_text("not-a-checkpoint 1 3 2\n" + "\n".join(lines[1:]))
    with pytest.raises(ValidationError, match="not a policy checkpoint"):
        load_policy(bad)

    bad.write_text("evoloss-policy 9 3 2\n" + "\n".join(lines[1:]))
    with pytest.raises(ValidationError, match="version"):
        load_policy(bad)

    bad.write_text("evoloss-policy x 8 32\n" + "\n".join(lines[1:]))
    with pytest.raises(ValidationError, match="non-integer"):
        load_policy(bad)

    bad.write_bytes(b"evoloss-policy 1 3 2\n\xff\n")
    with pytest.raises(ValidationError, match="cannot read"):
        load_policy(bad)

    bad.write_text("\n".join(lines[:-3]))  # truncated
    with pytest.raises(ValidationError, match="expected"):
        load_policy(bad)

    lines_bad = lines[:]
    lines_bad[5] = "banana"
    bad.write_text("\n".join(lines_bad))
    with pytest.raises(ValidationError, match="non-numeric"):
        load_policy(bad)

    with pytest.raises(ValidationError, match="cannot read"):
        load_policy(tmp_path / "missing.txt")

    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ValidationError, match="empty"):
        load_policy(empty)


@pytest.mark.parametrize("values", [("nan", "inf"), ("-inf", "0.5"), ("0.5", "1e999")])
def test_load_policy_rejects_non_finite_values(tmp_path, values):
    """A checkpoint whose first two values read nan and inf used to load
    as w1 = [nan, inf, ...], a policy init_policy never makes."""
    path = tmp_path / "policy.txt"
    save_policy(init_policy(3, np.random.default_rng(0), hidden=2), path)
    lines = path.read_text().splitlines()
    lines[1:3] = values
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="^checkpoint contains a non-finite value$"):
        load_policy(path)


def assert_loads_or_rejects(path):
    """load_policy returns a policy init_policy could have made, or
    raises ValidationError; nothing else escapes."""
    try:
        policy = load_policy(path)
    except ValidationError:
        return
    assert isinstance(policy, PolicyParams)
    assert policy.state_dim >= 1 and policy.hidden >= 1
    for field in dataclasses.fields(PolicyParams):
        assert np.isfinite(getattr(policy, field.name)).all(), field.name


CHECKPOINT_FUZZ = settings(
    max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@CHECKPOINT_FUZZ
@given(text=st.one_of(
    st.text(max_size=120),
    st.builds(lambda head, body: f"evoloss-policy {head}\n{body}",
              st.text(max_size=20), st.text(max_size=100)),
))
def test_load_policy_fuzz_text(tmp_path, text):
    path = tmp_path / "policy.txt"
    path.write_text(text, encoding="utf-8")
    assert_loads_or_rejects(path)


HEADER_FIELD = st.one_of(
    st.integers(min_value=-3, max_value=4).map(str),
    st.sampled_from(["", "1.0", "+1", "0x1", "1e3", "\u0663", str(10**20)]),
)


@CHECKPOINT_FUZZ
@given(
    state_dim=st.integers(min_value=1, max_value=3),
    hidden=st.integers(min_value=1, max_value=3),
    header=st.lists(HEADER_FIELD, min_size=3, max_size=3),
    kept=st.integers(min_value=0, max_value=60),
)
# a -1 size reached reshape as one unknown dimension too many
@example(state_dim=1, hidden=1, header=["1", "-1", "-1"], kept=2)
# zero sizes loaded a policy init_policy rejects
@example(state_dim=1, hidden=1, header=["1", "0", "0"], kept=5)
def test_load_policy_fuzz_header(tmp_path, state_dim, hidden, header, kept):
    """A real checkpoint with its header's version and sizes replaced and
    its values cut short or repeated to `kept` lines."""
    path = tmp_path / "policy.txt"
    save_policy(init_policy(state_dim, np.random.default_rng(0), hidden=hidden), path)
    values = path.read_text().splitlines()[1:]
    values = (values * (kept // len(values) + 1))[:kept]
    path.write_text("\n".join([f"evoloss-policy {' '.join(header)}", *values]) + "\n")
    assert_loads_or_rejects(path)


def test_cosine_helper_sanity():
    assert cosine((1.0, 0.0), (1.0, 0.0)) == 1.0
    assert abs(cosine((1.0, 0.0), (0.0, 1.0))) < 1e-15
