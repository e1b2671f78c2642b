"""Integrators: single steps, full trajectories, basins, CSV export, and
agreement between the path kernels and the checked single-step function."""

import contextlib
import csv
import dataclasses
import functools
import hashlib
import math
import pickle
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from evoloss import (
    AccuracyRecord,
    BenchmarkTable,
    IntegratorConfig,
    LabConfig,
    LossWeights,
    PayoffParams,
    PopulationState,
    SchedulerConfig,
    Trajectory,
    Transition,
    ValidationError,
    barlow_twins,
    discriminability,
    encoder_forward,
    field_coefficients,
    gen_two_view_batch,
    generalizability,
    info_nce,
    init_policy,
    map_action,
    observe_state,
    payoff_from_benchmarks,
    phase_portrait,
    policy_act,
    ppo_update,
    reward,
    saddle_point,
    sample_starts,
    simulate,
    train_episode,
    write_trajectories_csv,
)
from evoloss import _kernels, errors, game, stability
from evoloss.dynamics import CORNERS
from evoloss.kvfile import BLOCK_ROWS

from helpers import (
    AWKWARD_FLOATS,
    euler_flow,
    euler_path,
    reference_write_trajectories_csv,
    sample_gentle_pair,
    step_rk4,
)


def test_integrator_config_validation():
    IntegratorConfig()  # defaults are valid
    with pytest.raises(ValidationError):
        IntegratorConfig(dt=0.0)
    with pytest.raises(ValidationError):
        IntegratorConfig(dt=-0.1)
    with pytest.raises(ValidationError):
        IntegratorConfig(dt=1.0, t_max=0.5)
    with pytest.raises(ValidationError):
        IntegratorConfig(stop_tol=0.0)
    with pytest.raises(ValidationError):
        IntegratorConfig(t_max=float("inf"))
    # t_max / dt overflows, which would size the sample budget as inf
    with pytest.raises(ValidationError, match="t_max / dt must be finite"):
        IntegratorConfig(dt=1e-300, t_max=1e10)


def test_corners_constant():
    assert CORNERS == (
        PopulationState(0.0, 0.0),
        PopulationState(0.0, 1.0),
        PopulationState(1.0, 0.0),
        PopulationState(1.0, 1.0),
    )
    assert CORNERS is game.CORNERS is stability.CORNERS


def test_step_rk4_fixed_points_stay_exact(fixture_params):
    for corner in CORNERS:
        assert step_rk4(fixture_params, corner, 0.01) == corner
    star = saddle_point(fixture_params)
    assert step_rk4(fixture_params, star, 0.01) == star


def test_step_rk4_validation(fixture_params):
    with pytest.raises(ValidationError):
        step_rk4(fixture_params, (0.5, 0.5), 0.0)
    with pytest.raises(ValidationError):
        step_rk4(fixture_params, (1.5, 0.5), 0.01)


def test_step_rk4_against_substeps(fixture_params):
    """One dt step vs 100 dt/100 substeps: the coarse truncation error
    dominates and is far below 1e-10 for this field."""
    state = PopulationState(0.3, 0.7)
    coarse = step_rk4(fixture_params, state, 0.01)
    fine = state
    for _ in range(100):
        fine = step_rk4(fixture_params, fine, 0.0001)
    assert abs(coarse.x - fine.x) < 1e-10
    assert abs(coarse.y - fine.y) < 1e-10


def test_step_rk4_against_euler_reference(fixture_params):
    state = PopulationState(0.3, 0.7)
    coarse = step_rk4(fixture_params, state, 0.01)
    ref = euler_flow(fixture_params, state, 1e-6, 0.01)
    assert abs(coarse.x - ref.x) < 1e-7
    assert abs(coarse.y - ref.y) < 1e-7


def test_simulate_first_step_matches_step_rk4(fixture_params):
    """The path kernel and the checked single-step function share their
    arithmetic, so the first recorded step agrees bit for bit."""
    start = PopulationState(0.3, 0.7)
    traj = simulate(fixture_params, start, IntegratorConfig(t_max=1.0))
    manual = step_rk4(fixture_params, start, 0.01)
    assert traj.states[0].tolist() == [0.3, 0.7]
    assert traj.states[1].tolist() == [manual.x, manual.y]

    # a stiff game whose first step overshoots the square until halved
    # six times: both sides take the same dt / 64 step
    stiff = PayoffParams(g1=300, d1=200, g2=200, d2=300, n1=100, n2=100)
    start = PopulationState(0.5, 0.01)
    traj = simulate(stiff, start, IntegratorConfig(dt=0.5))
    manual = step_rk4(stiff, start, 0.5)
    assert traj.times[1] == 0.5 / 64
    assert traj.states[1].tolist() == [manual.x, manual.y]


def test_simulate_corner_start_converges_immediately(fixture_params):
    traj = simulate(fixture_params, (1.0, 0.0))
    assert traj.converged_to == PopulationState(1.0, 0.0)
    assert traj.reason == "corner"
    assert len(traj.times) == 1
    assert traj.final_state == (1.0, 0.0)


def test_simulate_basins_match_independent_euler(fixture_params):
    for start, corner in (
        (PopulationState(0.2, 0.9), PopulationState(0.0, 1.0)),
        (PopulationState(0.9, 0.2), PopulationState(1.0, 0.0)),
    ):
        traj = simulate(fixture_params, start)
        assert traj.converged_to == corner
        assert np.hypot(*(np.array(traj.final_state) - corner)) <= 1e-3
        # slow independent reference lands in the same basin
        ref = euler_flow(fixture_params, start, 1e-3, 40.0)
        assert np.hypot(ref.x - corner.x, ref.y - corner.y) < 0.01


def test_simulate_saddle_start_never_converges(fixture_params):
    star = saddle_point(fixture_params)
    traj = simulate(fixture_params, star, IntegratorConfig(t_max=50.0))
    assert traj.converged_to is None
    assert traj.reason == "horizon"
    assert traj.final_state == star  # the field is exactly zero there
    assert traj.times[-1] == pytest.approx(50.0, abs=1e-9)


def test_short_horizon_is_integrated_to_t_max(fixture_params):
    """A horizon that ended 1e-12 before t_max, whatever dt, stopped a
    t_max = 1e-12 path at its start, reported as a horizon stop; it ends
    1e-10 * dt before t_max, the same 1e-12 at the default dt."""
    cfg = IntegratorConfig(dt=1e-13, t_max=1e-12)
    alone = simulate(fixture_params, (0.3, 0.6), cfg)
    batch = phase_portrait(fixture_params, [(0.3, 0.6)] * _kernels.BATCH_MIN_LANES, cfg)
    for traj in (alone, *batch):
        assert traj.reason == "horizon"
        assert len(traj.times) == 11
        assert traj.times[-1] == 1e-12
        assert traj.final_state != (0.3, 0.6)
    # the default dt keeps the old end, bit for bit
    for t_max in (0.01, 3.3, 500.0):
        assert _kernels._path_rules(0.01, t_max, 1e-3)[2] == t_max - 1e-12


@pytest.mark.parametrize("dt", [1e-14, 1e-17, 1e-100, 1e-300])
def test_horizon_end_is_relative_to_dt(fixture_params, dt):
    """Ten steps of any dt reach the horizon, in both loops: the path
    takes ten steps of dt and ends within 1e-10 * dt of t_max, which
    rounding of the summed steps may leave it short by.  Below t_max =
    1e-12 an absolute end stopped it at its start."""
    t_max = 10 * dt
    cfg = IntegratorConfig(dt=dt, t_max=t_max)
    alone = simulate(fixture_params, (0.3, 0.6), cfg)
    batch = phase_portrait(fixture_params, [(0.3, 0.6)] * _kernels.BATCH_MIN_LANES, cfg)
    for traj in (alone, *batch):
        assert traj.reason == "horizon"
        assert len(traj.times) == 11
        assert 0.0 <= t_max - traj.times[-1] <= 1e-10 * dt
        np.testing.assert_allclose(np.diff(traj.times), dt, rtol=1e-9, atol=0.0)


def test_simulate_stays_in_unit_square(fixture_params, rng):
    for _ in range(10):
        start = PopulationState(rng.uniform(0, 1), rng.uniform(0, 1))
        traj = simulate(fixture_params, start, IntegratorConfig(t_max=100.0))
        assert np.all(traj.states >= 0.0)
        assert np.all(traj.states <= 1.0)
        assert np.all(np.diff(traj.times) > 0.0)


def test_phase_portrait_grid_dichotomy(fixture_params):
    # the grid must avoid x == y: for this symmetric game that diagonal is
    # the saddle's stable manifold and flows to the interior point instead
    xs = np.linspace(0.1, 0.9, 5)
    ys = np.linspace(0.15, 0.95, 5)
    starts = [PopulationState(float(x), float(y)) for x in xs for y in ys]
    assert all(s.x != s.y for s in starts)
    trajectories = phase_portrait(fixture_params, starts)
    hit = {traj.converged_to for traj in trajectories}
    assert hit == {PopulationState(0.0, 1.0), PopulationState(1.0, 0.0)}


def test_diagonal_is_the_watershed(fixture_params):
    """Starts on the symmetric game's diagonal ride the stable manifold
    into the interior fixed point and never reach a corner — which is
    why the interior point must not be a stopping target."""
    traj = simulate(fixture_params, (0.3, 0.3))
    assert traj.converged_to is None
    star = saddle_point(fixture_params)
    assert np.hypot(*(np.array(traj.final_state) - star)) < 1e-6


STIFF = PayoffParams(g1=300, d1=200, g2=200, d2=300, n1=100, n2=100)


def test_step_budget_stop_is_reported(fixture_params):
    """The stiff game halves its steps so often from (0.5, 0.01) that the
    2 * int(t_max / dt) + 16 sample budget runs out long before t_max;
    the trajectory says so instead of passing for a horizon stop."""
    cfg = IntegratorConfig(dt=0.5, t_max=50.0)
    traj = simulate(STIFF, (0.5, 0.01), cfg)
    assert traj.reason == "budget"
    assert traj.converged_to is None
    assert len(traj.times) == 216
    assert traj.times[-1] == 1.859375
    batch = phase_portrait(STIFF, [(0.5, 0.01)] * _kernels.BATCH_MIN_LANES, cfg)
    assert all(t.reason == "budget" for t in batch)


def _time_after(steps, dt):
    t = 0.0
    for _ in range(steps):
        t += dt
    return t


T_199 = _time_after(199, 0.01)
FIXTURE = PayoffParams(g1=1.5, d1=1.0, g2=1.0, d2=1.5, n1=0.5, n2=0.5)
EDGE_STARTS = (*CORNERS, PopulationState(-0.0, 0.5), PopulationState(0.5, -0.0))
LANES = _kernels.BATCH_MIN_LANES
CHUNK = _kernels._CHUNK
# four times the crossover, so that every case runs batched for a while
RANDOM_STARTS = tuple(sample_starts(4 * LANES, np.random.default_rng(5)))


def in_box(state, box):
    """Whether the point state lies in the box of _kernels._path_rules."""
    return all(min(v, 1.0 - v) <= box for v in state)


def own_leave(params, traj, cfg):
    """The sample at which the lane of traj leaves the batch of rk4_paths
    of its own accord: the first in the box of _kernels._path_rules, or
    whose next attempt, at the batch's step, lands outside the square or
    is NaN; the last sample when there is none.  Up to that sample the
    lane's times are the batch's clock, so its steps are the batch's."""
    *_, box = _kernels._path_rules(cfg.dt, cfg.t_max, cfg.stop_tol)
    coefficients = field_coefficients(params)
    for j, (t, state) in enumerate(zip(traj.times.tolist(), traj.states.tolist())):
        h = cfg.t_max - t if t + cfg.dt > cfg.t_max else cfg.dt
        xn, yn = _kernels.rk4_attempt(*coefficients, *state, h)
        if in_box(state, box) or not (0.0 <= xn <= 1.0 and 0.0 <= yn <= 1.0):
            return j
    return len(traj.times) - 1


def handoff_sample(own):
    """The sample at which rk4_paths hands the lanes still batched to the
    scalar loop because fewer than BATCH_MIN_LANES are left, given each
    lane's own leave sample: the first count, at the start or at a chunk
    end, after the first step or at a multiple of CHUNK steps, with
    fewer lanes whose own leave sample is that one or later; None when
    the last lanes leave of their own accord first."""
    for n in sorted({1, *range(0, max(own) + 1, CHUNK)}):
        left = sum(j >= n for j in own)
        if left < LANES:
            return n if left else None
    return None


def starts_leaving_at(params, start, cfg, samples):
    """Points of the path from start whose own lanes leave the batch at
    exactly the given samples: a step depends only on the state it
    starts from, far from the horizon."""
    traj = simulate(params, start, cfg)
    end = own_leave(params, traj, cfg)
    assert traj.reason != "horizon" and max(samples) <= end
    return [tuple(traj.states[end - j].tolist()) for j in samples]


#: Field coefficients (1.7e308, -1.7e308, 1, 0): on the edge x = 0 the
#: state stays on it and y grows logistically, until a - b * y overflows
#: to inf at y of about 0.0575 and x (1 - x) (a - b y) is 0 * inf = NaN.
#: The scalar loop then halves its steps ever closer to that y.
OVERFLOW = PayoffParams(g1=0.0, d1=1.0, g2=0.0, d2=1.7e308, n1=-1.0, n2=-1.7e308, w1=0.0,
                        w2=1.0)


# name: (params, starts, config, stop reasons of the whole batch); a
# lane leaves the batch at a sample in the box of _kernels._path_rules or
# whose next attempt is outside the square or NaN, found once per chunk;
# every lane leaves at the horizon or at the budget, and at a chunk end
# once fewer than BATCH_MIN_LANES are left
BATCH_CASES = {
    # corner starts leave at their first sample, in the box, and stop
    # there; the edge starts have signed zeros
    "default": (FIXTURE, (*EDGE_STARTS, *RANDOM_STARTS), IntegratorConfig(), {"corner"}),
    # the horizon cuts the last step short while batched, and the lanes
    # leave at the sample it ends on; the saddle and the diagonal never
    # reach a corner
    "horizon_cut": (FIXTURE, ((5 / 6, 5 / 6), (0.3, 0.3), *CORNERS, *RANDOM_STARTS),
                    IntegratorConfig(t_max=3.305), {"corner", "horizon"}),
    # the time reaches 3.2999999999999736, within the 1e-12 stop margin
    # below t_max, so the lanes leave at the horizon without a last
    # short step
    "horizon_margin": (FIXTURE, RANDOM_STARTS, IntegratorConfig(t_max=3.3),
                       {"corner", "horizon"}),
    # t + dt lands exactly on t_max after 199 steps, so the last step is
    # a full dt, although t_max - t is not dt
    "horizon_exact": (FIXTURE, RANDOM_STARTS, IntegratorConfig(t_max=T_199 + 0.01),
                      {"horizon"}),
    # (0.1, 0.05) leaves the batch at a halved step and meets the horizon
    # in the scalar loop, off the batch's clock: it lands on t_max with a
    # full step, although t_max - t is not dt; the saddle, given LANES
    # more times, stays batched and its last step is cut; the corner
    # start stops at its corner whatever LANES is
    "horizon_mixed": (STIFF, ((0.1, 0.05), (5 / 6, 5 / 6), (0.0, 1.0), *RANDOM_STARTS,
                              *[(5 / 6, 5 / 6)] * LANES),
                      IntegratorConfig(t_max=0.055), {"corner", "horizon"}),
    # after some batched steps, a lane leaves when its attempt lands just
    # outside the square, within CLAMP_TOL, and the scalar loop takes that
    # attempt at the full step, clamped onto the edge: the first start
    # does so at its sample 6, and is given LANES times so that the batch
    # holds them until then whatever LANES is
    "clamp": (FIXTURE, ((0.40509865286115954, 0.07347331180727756),) * LANES + RANDOM_STARTS,
              IntegratorConfig(dt=1.5, t_max=50.0), {"horizon"}),
    # the stop balls overlap and the box is the whole square, so every
    # lane leaves at its start: the first corner in CORNERS order wins
    "overlap": (FIXTURE, ((0.5, 0.5), *RANDOM_STARTS), IntegratorConfig(stop_tol=0.75),
                {"corner"}),
    # lanes whose first attempt overshoots leave at their start, and the
    # scalar loop retries from the full step dt; (0.5, 0.01) and others
    # run out of budget
    "budget": (STIFF, ((0.5, 0.01), *RANDOM_STARTS), IntegratorConfig(dt=0.5, t_max=50.0),
               {"corner", "budget"}),
    # one start fewer than BATCH_MIN_LANES: all leave at the first
    # sample, the corners stopping on the sample the batch recorded
    "handoff_first": (FIXTURE, (*EDGE_STARTS, *RANDOM_STARTS[: LANES - 1 - len(EDGE_STARTS)]),
                      IntegratorConfig(), {"corner"}),
    # lanes leave of their own accord at the first, a middle and the last
    # sample of the first two chunks, and at the third chunk's first,
    # while at least LANES others stay batched
    "leave_chunk_edges": (
        FIXTURE,
        starts_leaving_at(FIXTURE, (0.45, 0.5), IntegratorConfig(), [
            0, 50, CHUNK - 1, CHUNK, CHUNK + 50, 2 * CHUNK - 1,
            *(2 * CHUNK + 3 * i for i in range(LANES)),
        ]),
        IntegratorConfig(), {"corner"},
    ),
    # lanes leave in mid-chunk, so that fewer than LANES are left at the
    # chunk's end, and the scalar loop takes those there
    "handoff_chunk_end": (
        FIXTURE,
        starts_leaving_at(FIXTURE, (0.45, 0.5), IntegratorConfig(), [
            *(CHUNK + 5 + 3 * i for i in range(8)),
            *(2 * CHUNK + 20 + 5 * i for i in range(LANES - 1)),
        ]),
        IntegratorConfig(), {"corner"},
    ),
    # every lane's first attempt overshoots, so all leave at their start
    # although they are more than LANES, and the chunk's later states
    # are thrown away; (0.5, 0.01) runs on to the step budget
    "leave_all_at_start": (
        STIFF,
        ((0.5, 0.01), (0.5, 0.01), *map(tuple, simulate(
            STIFF, (0.4, 0.4), IntegratorConfig(dt=0.5, t_max=50.0)
        ).states[::2].tolist())),
        IntegratorConfig(dt=0.5, t_max=50.0), {"corner", "budget"},
    ),
    # early in the second chunk a lane's attempt overflows to NaN while
    # LANES others stay batched: it computes on to the chunk's end on
    # NaN, which must change no other lane and warn of nothing, and the
    # scalar loop runs it on to the step budget
    "overflow": (
        OVERFLOW,
        starts_leaving_at(OVERFLOW, (0.0, 0.0011), IntegratorConfig(t_max=6.0), [
            CHUNK + 2, *(300 + 2 * i for i in range(LANES)),
        ]),
        IntegratorConfig(t_max=2.6), {"horizon", "budget"},
    ),
    # (0.25, 0.25) is in the box but outside every stop ball, so it
    # leaves at its start while the others stay batched, and runs on
    # from the source (0, 0) to a corner in the scalar loop
    "box_not_ball": (FIXTURE, ((0.25, 0.25), *RANDOM_STARTS), IntegratorConfig(stop_tol=0.3),
                     {"corner"}),
}


@pytest.mark.parametrize("case", BATCH_CASES)
def test_phase_portrait_batch_matches_per_start_simulate(case):
    """The batched sweep reproduces one simulate per start bit for bit:
    tobytes() also tells -0.0 from 0.0, which array_equal does not."""
    params, starts, cfg, reasons = BATCH_CASES[case]
    batch = phase_portrait(params, starts, cfg)
    assert len(batch) == len(starts)
    for start, got in zip(starts, batch):
        want = simulate(params, start, cfg)
        assert got.times.tobytes() == want.times.tobytes()
        assert got.states.tobytes() == want.states.tobytes()
        assert (got.converged_to, got.reason) == (want.converged_to, want.reason)
    assert {t.reason for t in batch} == reasons
    # why the lanes of each case leave the batch of rk4_paths
    lengths = [len(t.times) for t in batch]
    own = [own_leave(params, t, cfg) for t in batch]
    handoff = handoff_sample(own)
    # the sample at which each lane leaves the batch
    leaves = own if handoff is None else [min(j, handoff) for j in own]
    if case == "horizon_cut":
        assert np.diff(batch[0].times)[-1] < cfg.dt
        assert leaves[0] == lengths[0] - 1
    if case == "horizon_margin":
        assert 0.0 < cfg.t_max - batch[0].times[-1] <= 1e-12 and leaves[0] == lengths[0] - 1
    if case == "clamp":

        def clamped(traj, j):
            """Whether the lane leaves at sample j on an attempt within
            CLAMP_TOL outside the square, taken at the full step."""
            xn, yn = _kernels.rk4_attempt(*field_coefficients(params), *traj.states[j].tolist(), cfg.dt)
            tol = _kernels.CLAMP_TOL
            return (
                not (0.0 <= xn <= 1.0 and 0.0 <= yn <= 1.0)
                and -tol <= min(xn, yn) and max(xn, yn) <= 1.0 + tol
                and traj.times[j + 1] == traj.times[j] + cfg.dt
            )

        # of its own accord, before any handoff
        assert any(
            clamped(t, j) for t, j in zip(batch, own)
            if 0 < j < len(t.times) - 1 and (handoff is None or j < handoff)
        )
    if case == "horizon_exact":
        assert cfg.t_max - T_199 != cfg.dt
        assert all(t.times[-2:].tolist() == [T_199, cfg.t_max] for t in batch)
    if case == "horizon_mixed":
        behind, cut = batch[0].times, batch[1].times
        assert behind[-2:].tolist() == [0.045, cfg.t_max] and cfg.t_max - 0.045 != cfg.dt
        assert cut[-2] + cfg.dt > cfg.t_max and cut[-2] > behind[-2]
        assert leaves[0] < lengths[0] - 1 and leaves[1] == lengths[1] - 1
    if case == "budget":
        assert batch[0].times[1] == cfg.dt / 64 and leaves[0] == 0 and handoff != 0
    if case == "handoff_first":
        assert handoff == 0 and min(lengths) == 1
    if case == "leave_chunk_edges":
        assert handoff is None
        assert {0, 50, CHUNK - 1, CHUNK, CHUNK + 50, 2 * CHUNK - 1, 2 * CHUNK} <= set(leaves)
    if case == "handoff_chunk_end":
        assert handoff == 2 * CHUNK
        assert sum(CHUNK < j < 2 * CHUNK for j in own) == 8
        assert sum(j > handoff for j in own) == LANES - 1
    if case == "leave_all_at_start":
        assert batch[0].reason == "budget" and handoff is None and max(leaves) == 0
    if case == "overflow":
        j = own[0]
        xn, yn = _kernels.rk4_attempt(*field_coefficients(params), *batch[0].states[j].tolist(), cfg.dt)
        assert math.isnan(xn) and CHUNK < j < CHUNK + 8 and handoff is None
        assert sum(k > 2 * CHUNK for k in leaves) >= LANES
    if case == "box_not_ball":
        *_, box = _kernels._path_rules(cfg.dt, cfg.t_max, cfg.stop_tol)
        start = batch[0].states[0]
        assert in_box(start, box) and lengths[0] > 1
        assert min(math.dist(start, corner) for corner in CORNERS) > cfg.stop_tol
        # the lanes that stay batched after the first sample
        assert sum(j > 0 for j in leaves[1:]) >= LANES


def test_rk4_paths_matches_rk4_path_when_every_attempt_is_rejected():
    """A field so stiff that every attempt of the first step from an
    interior start overshoots: the step keeps the 64th attempt, clamped,
    and halves its step once more.  Stopping is off, so the corner start
    runs on too."""
    a = c = 1e30
    b = e = 0.0
    starts = ((0.3, 0.7), (0.0, 0.0), (0.9, 0.2), *RANDOM_STARTS)
    paths = _kernels.rk4_paths(
        a, b, c, e, [s[0] for s in starts], [s[1] for s in starts], 0.01, 0.05, -1.0
    )
    for start, (ts, states, term) in zip(starts, paths):
        want_ts, xs, ys, want_term = _kernels.rk4_path(a, b, c, e, *start, 0.01, 0.05, -1.0)
        assert ts.tobytes() == want_ts.tobytes()
        assert states.tobytes() == np.column_stack((xs, ys)).tobytes()
        assert term == want_term
    assert paths[0][0][1] == 0.01 / 2**64


def test_phase_portrait_lanes_share_one_read_only_clock(fixture_params):
    """A lane that stops at its leave sample takes its times as a view of
    the batch's one clock, which is read-only; a lane that the scalar
    loop finished owns its times; every lane is still simulate's path."""
    cfg = IntegratorConfig()
    starts = sample_starts(2 * LANES + 6, np.random.default_rng(3))
    batch = phase_portrait(fixture_params, starts, cfg)
    for start, got in zip(starts, batch):
        want = simulate(fixture_params, start, cfg)
        assert got.times.tobytes() == want.times.tobytes()
        assert got.states.tobytes() == want.states.tobytes()
        assert (got.converged_to, got.reason) == (want.converged_to, want.reason)
    own = [own_leave(fixture_params, t, cfg) for t in batch]
    handoff = handoff_sample(own)
    leaves = own if handoff is None else [min(j, handoff) for j in own]
    shared = [t.times for t, j in zip(batch, leaves) if j == len(t.times) - 1]
    finished = [t.times for t, j in zip(batch, leaves) if j < len(t.times) - 1]
    assert len(shared) >= 2 and finished
    for times in shared:
        assert not times.flags.writeable
        assert np.shares_memory(times, shared[0])
    with pytest.raises(ValueError):
        shared[0][0] = 1.0
    for times in finished:
        assert times.flags.writeable and times.flags.owndata


@settings(max_examples=20, deadline=None)
@given(
    k=st.integers(-40, 40),
    seed=st.integers(0, 2**32 - 1),
    dt=st.sampled_from([0.01, 0.03, 0.1]),
    t_max=st.floats(0.1, 30.0),
)
def test_integration_is_scale_invariant_under_powers_of_two(k, seed, dt, t_max):
    """Payoffs times 2^k with dt and t_max times 2^-k is the same field
    in another time unit: every RK4 stage h * f, the clock and the stop
    rules scale exactly, so states and stop reasons keep their bits and
    times scale by 2^-k, batched and per start.  The saddle stays to the
    horizon; the other starts reach a corner or the horizon."""
    scale = 2.0**k
    scaled = PayoffParams(*(v * scale for v in FIXTURE.astuple()[:6]))
    cfg = IntegratorConfig(dt=dt, t_max=t_max)
    scaled_cfg = IntegratorConfig(dt=dt / scale, t_max=t_max / scale)
    starts = [*sample_starts(2 * LANES, np.random.default_rng(seed)), (5 / 6, 5 / 6), (0.3, 0.3)]
    pairs = [*zip(phase_portrait(FIXTURE, starts, cfg), phase_portrait(scaled, starts, scaled_cfg)),
             *[(simulate(FIXTURE, s, cfg), simulate(scaled, s, scaled_cfg)) for s in starts[-3:]]]
    for want, got in pairs:
        assert got.states.tobytes() == want.states.tobytes()
        assert (got.converged_to, got.reason) == (want.converged_to, want.reason)
        assert got.times.tobytes() == (want.times / scale).tobytes()
    assert pairs[2 * LANES][0].reason == "horizon"


@pytest.mark.parametrize(
    "seed, digest",
    [
        (1, "278c1a117dc69a5c9edc736733cd2eb0e5e0de762710d81443440a29581b2ce1"),
        (2, "9000a316ff0a20367f1c764315429eb6d5f519809ac96cbccb6ebaf87d3e3782"),
        (3, "7695e50a3d7d0745bd0cc2a2185c7b7acc03387a54f3a4c21ca9576d574676df"),
    ],
)
def test_phase_portrait_sweep_bytes_are_pinned(fixture_params, seed, digest):
    """A 400-start sweep keeps its bytes: its lanes leave the batch over
    many chunks, and the last ones are handed to the scalar loop at a
    chunk end, so batched steps, leave tests and hand-offs all count."""
    trajs = phase_portrait(fixture_params, sample_starts(400, np.random.default_rng(seed)))
    chunks = {(len(t.times) - 1) // CHUNK for t in trajs}
    assert len(chunks) >= 10
    sha = hashlib.sha256()
    for t in trajs:
        for part in (t.times.tobytes(), t.states.tobytes(), repr(t.converged_to), t.reason):
            sha.update(part if isinstance(part, bytes) else part.encode())
    assert sha.hexdigest() == digest


def test_phase_portrait_validates_starts(fixture_params):
    with pytest.raises(ValidationError):
        phase_portrait(fixture_params, [])
    with pytest.raises(ValidationError):
        phase_portrait(fixture_params, [(1.5, 0.5)])


@pytest.mark.parametrize(
    "start",
    [(0.1, 0.2, 0.3), ("a", "b"), (None, 0.5), 0.5, (0.5 + 0j, 0.2),
     (np.complex128(0.2 + 1j), 0.9)],
)
def test_phase_portrait_rejects_a_start_that_is_not_a_pair_of_reals(fixture_params, start):
    """Unpacking such a start, or math.isfinite on its entries, raised a
    bare ValueError or TypeError; a numpy complex coordinate was taken
    by its real part, with only a ComplexWarning."""
    with pytest.raises(ValidationError, match="pair of real numbers"):
        phase_portrait(fixture_params, [(0.5, 0.5), start])


@pytest.mark.parametrize("n", [2.5, math.nan, "3"])
def test_sample_starts_rejects_a_non_integer_count(n):
    with pytest.raises(ValidationError, match="n must be an integer"):
        sample_starts(n, np.random.default_rng(4))


def test_sample_starts_takes_a_whole_float_count():
    """2.0 starts are 2, as errors.as_int reads every integer input."""
    assert sample_starts(2.0, np.random.default_rng(4)) == sample_starts(
        2, np.random.default_rng(4)
    )


TRANSITION = functools.partial(
    Transition, state=np.zeros(2), action=np.zeros(2), reward=0.0, log_prob=0.0, value=0.0
)
POLICY = init_policy(2, np.random.default_rng(0))
Z = np.arange(6.0).reshape(3, 2)
MAP_ACTION = functools.partial(map_action, cfg=SchedulerConfig())
POLICY_ACT = functools.partial(policy_act, POLICY, rng=np.random.default_rng(0))
# each public array input, with a valid value for it
ARRAY_INPUTS = [
    ("observe_state", observe_state, "features", Z),
    ("map_action", MAP_ACTION, "action", np.zeros(2)),
    ("policy_act", POLICY_ACT, "state", np.zeros(2)),
    ("Transition", TRANSITION, "state", np.zeros(2)),
    ("Transition", TRANSITION, "action", np.zeros(2)),
    ("info_nce", functools.partial(info_nce, z2=Z), "z1", Z),
    ("barlow_twins", functools.partial(barlow_twins, z2=Z), "z1", Z),
    ("encoder_forward", functools.partial(encoder_forward, x=Z), "weights", np.eye(2)),
    *[("PolicyParams", functools.partial(dataclasses.replace, POLICY), name, getattr(POLICY, name))
      for name in ("w1", "b1", "w2", "b2", "vw1", "vb1", "vw2", "log_std")],
]


def with_nan(good):
    bad = good.copy()
    bad.flat[0] = math.nan
    return bad


@pytest.mark.parametrize(
    "constructor,field,value",
    [
        (functools.partial(phase_portrait, FIXTURE), "starts", 5),
        (functools.partial(phase_portrait, FIXTURE), "starts", None),
        (IntegratorConfig, "dt", "0.1"),
        (IntegratorConfig, "t_max", None),
        (IntegratorConfig, "stop_tol", 1e-3 + 0j),
        (IntegratorConfig, "dt", np.complex128(0.1 + 1j)),
        (functools.partial(LabConfig, steps=1), "noise_scale", "x"),
        (functools.partial(LabConfig, steps=1), "learning_rate", None),
        (functools.partial(LabConfig, steps=1), "input_dim", "16"),
        (functools.partial(LabConfig, steps=1), "batch_size", [32]),
        (SchedulerConfig, "center", "1"),
        (SchedulerConfig, "explore_weight", None),
        (SchedulerConfig, "target", (1,)),
        (SchedulerConfig, "target", None),
        (SchedulerConfig, "target", ("a", 1.0)),
        (functools.partial(dataclasses.replace, FIXTURE), "g1", "a"),
        (functools.partial(dataclasses.replace, FIXTURE), "w2", None),
        (functools.partial(dataclasses.replace, FIXTURE), "n1", 10**400),  # overflows a float
        pytest.param(functools.partial(dataclasses.replace, FIXTURE), "n2", -10**5000,
                     id="n2-int-too-long-to-print"),
        (functools.partial(LossWeights, alpha=1.0, beta=1.0), "alpha", "a"),
        (functools.partial(LossWeights, alpha=1.0, beta=1.0), "beta", 1j),
        (functools.partial(AccuracyRecord, "BT", "C10", "C10"), "accuracy", "50"),
        # generalizability returned a complex number; the others escaped
        # as a bare TypeError or OverflowError
        (functools.partial(generalizability, ssl_acc=80.0), "sl_acc", np.complex128(90 + 1j)),
        (functools.partial(generalizability, ssl_acc=80.0), "sl_acc", "90"),
        (functools.partial(generalizability, sl_acc=90.0), "ssl_acc", None),
        pytest.param(functools.partial(generalizability, sl_acc=90.0), "ssl_acc", 10**400,
                     id="generalizability-ssl_acc-int-too-large-for-a-float"),
        (functools.partial(discriminability, ssl_acc=80.0), "sl_acc", np.complex128(90 + 1j)),
        (functools.partial(discriminability, ssl_acc=80.0), "sl_acc", "90"),
        (functools.partial(discriminability, sl_acc=90.0), "ssl_acc", None),
        pytest.param(functools.partial(discriminability, sl_acc=90.0), "ssl_acc", 10**400,
                     id="discriminability-ssl_acc-int-too-large-for-a-float"),
        # a complex reward was accepted
        (TRANSITION, "reward", np.complex128(1 + 2j)),
        pytest.param(TRANSITION, "reward", 10**400, id="reward-int-too-large-for-a-float"),
        (functools.partial(init_policy, rng=np.random.default_rng(0)), "state_dim", 8.5),
        # formatting the message raised a bare ValueError: the int has
        # more digits than str() prints
        pytest.param(game.check_state, "state", (10**5000, 0.5), id="state-int-too-long-to-print"),
        # a complex array was taken by its real part, a string or ragged
        # one escaped as a bare ValueError or TypeError, and NaN weights
        # were encoded
        *[pytest.param(constructor, field, bad, id=f"{name}-{field}-{kind}")
          for name, constructor, field, good in ARRAY_INPUTS
          for kind, bad in (("complex", good + 1j), ("str", good.astype(str)),
                            ("ragged", [good.tolist(), [0.0]]), ("nan", with_nan(good)))],
        # a shape the function does not take; the first two already
        # named their argument
        pytest.param(MAP_ACTION, "action", np.zeros(3), id="map_action-action-shape"),
        pytest.param(POLICY_ACT, "state", np.zeros(3), id="policy_act-state-shape"),
        pytest.param(observe_state, "features", np.zeros(2), id="observe_state-features-shape"),
        pytest.param(TRANSITION, "state", np.zeros((2, 2)), id="Transition-state-shape"),
        pytest.param(TRANSITION, "action", np.zeros(3), id="Transition-action-shape"),
        pytest.param(functools.partial(info_nce, Z), "z2", Z[:2], id="info_nce-z2-shape"),
        pytest.param(functools.partial(barlow_twins, Z), "z2", Z[:2], id="barlow_twins-z2-shape"),
        pytest.param(functools.partial(encoder_forward, np.eye(2)), "x", np.zeros((3, 3)),
                     id="encoder_forward-x-shape"),
        pytest.param(functools.partial(dataclasses.replace, POLICY), "w1", np.zeros(2),
                     id="PolicyParams-w1-shape"),
        pytest.param(functools.partial(dataclasses.replace, POLICY), "vw2", np.zeros((32, 1)),
                     id="PolicyParams-vw2-shape"),
        # a long vb2 was read as a scalar, and its message printed the
        # whole array over several lines
        pytest.param(functools.partial(dataclasses.replace, POLICY), "vb2", np.zeros(100),
                     id="PolicyParams-vb2-shape"),
        # as_float read a one-entry array as its entry on numpy before
        # 2.4, and printed a long one over several lines
        pytest.param(TRANSITION, "reward", np.zeros(1), id="Transition-reward-shape"),
        pytest.param(TRANSITION, "reward", np.zeros(100), id="Transition-reward-long"),
        # PolicyParams checked only shapes
        (functools.partial(dataclasses.replace, POLICY), "vb2", 1j),
        (functools.partial(dataclasses.replace, POLICY), "vb2", math.nan),
        # ppo_update escaped with an AttributeError, or a bare ValueError
        # from stacking states of two lengths
        pytest.param(functools.partial(ppo_update, POLICY, cfg=SchedulerConfig(update_period=1)),
                     "buffer", [5], id="ppo_update-buffer-int"),
        pytest.param(functools.partial(ppo_update, POLICY, cfg=SchedulerConfig(update_period=2)),
                     "buffer", [TRANSITION(), TRANSITION(state=np.zeros(3))],
                     id="ppo_update-buffer-ragged-states"),
    ],
)
def test_public_api_rejects_a_value_that_is_not_a_finite_real(constructor, field, value):
    """Each of these escaped as a bare TypeError, ValueError,
    OverflowError or AttributeError, was taken by its real part, was
    accepted, or was rejected with a message that did not start with its
    name, except the NaN cases of observe_state, map_action and
    policy_act and the shape cases of the last two, whose message already
    did."""
    with pytest.raises(ValidationError, match=f"^{field}") as exc:
        constructor(**{field: value})
    assert "\n" not in str(exc.value)


# two (4, 3) draws in a row from one generator
Z1, Z2 = np.random.default_rng(0).standard_normal((2, 4, 3))


@pytest.mark.parametrize(
    "name,call",
    [
        # the row norms overflowed, so every unit row was 0 and the loss ln 4
        pytest.param("info_nce", lambda: info_nce(Z1 * 1e200, Z2 * 1e200), id="info_nce"),
        # the column norms overflowed: loss 3.0 with a zero gradient
        pytest.param("barlow_twins", lambda: barlow_twins(Z1 * 1e200, Z2 * 1e200),
                     id="barlow_twins"),
        # loss inf with NaN gradients
        pytest.param("barlow_twins", lambda: barlow_twins(Z1, Z2, epsilon=1e308),
                     id="barlow_twins-epsilon"),
        # the squared norm of the pair overflowed and the cosine was lost: 0.2
        pytest.param("reward",
                     lambda: reward(LossWeights(1e200, 1e200), SchedulerConfig(), 1.0, 0.5),
                     id="reward"),
        pytest.param("encoder_forward",
                     lambda: encoder_forward(np.full((2, 2), 1e200), np.full((1, 2), 1e200)),
                     id="encoder_forward"),
        pytest.param("observe_state", lambda: observe_state(np.full((2, 2), 1e308)),
                     id="observe_state"),
        # 65 of the 1 024 view entries were inf
        pytest.param("gen_two_view_batch",
                     lambda: gen_two_view_batch(np.random.default_rng(0),
                                                LabConfig(steps=1, noise_scale=1e308)),
                     id="gen_two_view_batch"),
    ],
)
def test_public_numeric_function_raises_on_overflow(name, call):
    """Each returned inf or a silently wrong value after a RuntimeWarning;
    now each raises one line, as policy_act and ppo_update do."""
    with pytest.raises(ValidationError, match=f"^{name} diverged: overflow encountered in ") as exc:
        call()
    assert "\n" not in str(exc.value)


# two transitions whose states underflow against the policy's first layer
TINY_BUFFER = [Transition(np.full(2, 1e-320), np.array([0.1, -0.2]), r, 0.0, 0.0)
               for r in (1.0, -1.0)]


@pytest.mark.parametrize(
    "module,call",
    [
        pytest.param("losses", lambda: info_nce(Z1 * 1e-160, Z2 * 1e-160), id="info_nce"),
        pytest.param("losses", lambda: barlow_twins(Z1 * 1e-160, Z2 * 1e-160), id="barlow_twins"),
        pytest.param("scheduler",
                     lambda: reward(LossWeights(1e-160, 1e-160), SchedulerConfig(), 1.0, 0.5),
                     id="reward"),
        pytest.param("lab",
                     lambda: encoder_forward(np.full((2, 2), 1e-200), np.full((1, 2), 1e-200)),
                     id="encoder_forward"),
        pytest.param("scheduler", lambda: observe_state(np.array([[5e-324], [0.0]])),
                     id="observe_state"),
        pytest.param("lab",
                     lambda: gen_two_view_batch(np.random.default_rng(0),
                                                LabConfig(steps=1, noise_scale=1e-320)),
                     id="gen_two_view_batch"),
        pytest.param("scheduler",
                     lambda: policy_act(POLICY, np.full(2, 1e-320), np.random.default_rng(0)),
                     id="policy_act"),
        pytest.param("scheduler",
                     lambda: ppo_update(POLICY, TINY_BUFFER, SchedulerConfig(update_period=2)),
                     id="ppo_update"),
    ],
)
def test_divergence_guard_keeps_the_bytes_of_an_underflow(monkeypatch, module, call):
    """The guard traps overflow, invalid operations and division by zero,
    and changes no arithmetic: on input that underflows, each guarded
    function returns the bytes it returns without the guard."""
    guarded = pickle.dumps(call())
    monkeypatch.setattr(f"evoloss.{module}.raising", lambda name: contextlib.nullcontext())
    # the input does underflow
    with np.errstate(under="raise"), pytest.raises(FloatingPointError, match="underflow"):
        call()
    assert pickle.dumps(call()) == guarded


def test_policy_params_reject_a_complex_weight():
    """The policy was made, and policy_act on it returned a complex
    action after a ComplexWarning."""
    with pytest.raises(ValidationError) as exc:
        dataclasses.replace(POLICY, w1=POLICY.w1 + 1j)
    assert str(exc.value) == "w1 must be an array of real numbers, got dtype complex128"


@pytest.mark.skipif(
    np.finfo(np.longdouble).max <= np.finfo(np.float64).max,
    reason="long double is float64 here, so no entry lies beyond its range",
)
def test_as_array_reads_a_long_double_beyond_float64_as_not_finite():
    """The cast to float64 warned of its overflow before the one-line
    error; under the suite's warning filter the warning escaped."""
    big = np.array([1e300], dtype=np.longdouble) * np.longdouble(1e300)
    with pytest.raises(errors.NotFiniteError) as exc:
        errors.as_array("v", big, (None,))
    assert str(exc.value) == "v must be finite, got inf"


def test_as_float_reads_a_signaling_nan_as_not_finite():
    """float() refuses a Decimal signaling NaN, and its bare ValueError
    escaped."""
    with pytest.raises(errors.NotFiniteError) as exc:
        errors.as_float("x", Decimal("sNaN"))
    assert str(exc.value) == "x must be finite, got sNaN"


def test_as_float_reports_a_fraction_too_large_for_a_float_as_a_number():
    """It was reported as "an int too large for a float"."""
    with pytest.raises(errors.NotFiniteError) as exc:
        errors.as_float("x", Fraction(10**400, 3))
    assert str(exc.value) == "x must be finite, got a number too large for a float"


@pytest.mark.parametrize(
    "constructor,kwargs,message",
    [
        (IntegratorConfig, {"dt": 0}, "dt must be positive, got 0.0"),
        (IntegratorConfig, {"stop_tol": 0}, "stop_tol must be positive, got 0.0"),
        (LabConfig, {"steps": 0}, "steps must be positive, got 0"),
        (LabConfig, {"steps": 1, "feature_dim": 1}, "feature_dim must be at least 2, got 1"),
        (LabConfig, {"steps": 1, "batch_size": 1}, "batch_size must be at least 2, got 1"),
        (LabConfig, {"steps": 1, "seed": -1}, "seed must be nonnegative, got -1"),
        (SchedulerConfig, {"center": 0}, "center must be positive, got 0.0"),
        (SchedulerConfig, {"explore_weight": -1}, "explore_weight must be nonnegative, got -1.0"),
        (SchedulerConfig, {"update_period": 0}, "update_period must be positive, got 0"),
        (SchedulerConfig, {"target": (-0.1, 1)}, "target_x must be nonnegative, got -0.1"),
        (LossWeights, {"alpha": -1, "beta": 1}, "alpha must be nonnegative, got -1.0"),
        (functools.partial(dataclasses.replace, FIXTURE), {"g1": -1},
         "g1 must be nonnegative, got -1.0"),
        (functools.partial(sample_starts, rng=np.random.default_rng(4)), {"n": 0},
         "n must be positive, got 0"),
    ],
)
def test_range_checks_name_the_field(constructor, kwargs, message):
    """errors.as_float and as_int check each field's range, once."""
    with pytest.raises(ValidationError) as exc:
        constructor(**kwargs)
    assert str(exc.value) == message


def test_payoff_params_take_signed_ensembling_costs():
    """Only n1 and n2 may be negative: an ensemble can beat its members."""
    assert dataclasses.replace(FIXTURE, n1=-1, n2=-2.5).n1 == -1


def one_game_table(ensemble_transfer):
    """A benchmark table of one game (A, B, ensemble A+B, pretrained on C,
    transferred to S) with the given ensemble transfer accuracy."""
    return BenchmarkTable({
        ("SL", "C", "C"): 90.0, ("SL", "S", "S"): 80.0,
        ("A", "C", "C"): 85.0, ("A", "C", "S"): 60.0,
        ("B", "C", "C"): 88.0, ("B", "C", "S"): 55.0,
        ("A+B", "C", "C"): 87.0, ("A+B", "C", "S"): ensemble_transfer,
    })


@pytest.mark.parametrize(
    "call,value",
    [
        # the encoder step or the loss raised a bare UFuncTypeError
        pytest.param(lambda v: train_episode(LabConfig(steps=3, learning_rate=v)),
                     Decimal("0.01"), id="LabConfig-learning_rate"),
        # the rest raised a bare TypeError
        pytest.param(lambda v: train_episode(LabConfig(steps=3), SchedulerConfig(center=v)),
                     Decimal("0.5"), id="SchedulerConfig-center"),
        pytest.param(lambda v: simulate(FIXTURE, (0.2, 0.7), IntegratorConfig(dt=v)),
                     Decimal("0.01"), id="IntegratorConfig-dt"),
        pytest.param(lambda v: saddle_point(dataclasses.replace(FIXTURE, g1=v)),
                     Decimal("1.5"), id="PayoffParams-g1"),
        pytest.param(lambda v: reward(LossWeights(v, 0.5), SchedulerConfig(), 1.0, 0.5),
                     Decimal("0.5"), id="LossWeights-alpha"),
        pytest.param(lambda v: ppo_update(POLICY, [TRANSITION(reward=v)],
                                          SchedulerConfig(update_period=1)),
                     Decimal("1.5"), id="Transition-reward"),
        pytest.param(lambda v: payoff_from_benchmarks([one_game_table(v)], 1.0, 1.0, "B", "A+B"),
                     Decimal("58"), id="AccuracyRecord-accuracy"),
        # the horizon end was worked out in float32, 4.8e-8 past t_max
        pytest.param(lambda v: simulate(FIXTURE, (5 / 6, 5 / 6), IntegratorConfig(t_max=v)),
                     np.float32(3.3), id="IntegratorConfig-t_max-float32"),
        # (Fraction(1, 3), 1, 1, 1, 0, 0, 1.0, 1.0)
        pytest.param(lambda v: PayoffParams(g1=v, d1=1, g2=1, d2=1, n1=0, n2=0).astuple(),
                     Fraction(1, 3), id="PayoffParams-astuple"),
    ],
)
def test_a_number_read_once_computes_as_its_float(call, value):
    """Each value passed as_float and then broke the arithmetic, or was
    computed in its own type; now the class keeps the float it read."""
    assert pickle.dumps(call(value)) == pickle.dumps(call(float(value)))


@pytest.mark.parametrize(
    "call,args",
    [
        # a bare UFuncTypeError, and a bare TypeError
        pytest.param(info_nce, (Z1, Z2, Fraction(7, 100)), id="info_nce-temperature"),
        pytest.param(barlow_twins, (Z1, Z2, Decimal("0.0051")), id="barlow_twins-epsilon"),
        # np.float16(1.2), which is 1.2001953125
        pytest.param(functools.partial(reward, LossWeights(0.85, 0.87), SchedulerConfig()),
                     (np.float16(1.5), np.float16(1.0)), id="reward-float16"),
        # np.float64(1.2), where a float was promised
        pytest.param(functools.partial(reward, LossWeights(0.85, 0.87), SchedulerConfig()),
                     (1.0, np.float64(0.5)), id="reward-float64"),
    ],
)
def test_scalar_arguments_compute_as_their_float(call, args):
    """info_nce, barlow_twins and reward compute with the float that
    as_float read from each scalar argument, not with the argument."""
    as_floats = [a if isinstance(a, np.ndarray) else float(a) for a in args]
    assert pickle.dumps(call(*args)) == pickle.dumps(call(*as_floats))


@pytest.mark.parametrize(
    "one", [True, 1, Fraction(1), Decimal(1), np.float16(1), np.float32(1), np.float64(1)],
    ids=repr,
)
@pytest.mark.parametrize(
    "cls,given",
    [pytest.param(cls, given, id=cls.__name__) for cls, given in (
        (LabConfig, {"steps": 1}),
        (SchedulerConfig, {}),
        (IntegratorConfig, {}),
        (PayoffParams, {}),
        (LossWeights, {}),
        (AccuracyRecord, {"method": "SL", "pretrain": "C", "eval": "C"}),
        (Transition, {"state": np.zeros(2), "action": np.zeros(2)}),
    )],
)
def test_every_float_field_is_stored_as_a_float(cls, given, one):
    names = [f.name for f in dataclasses.fields(cls) if f.type == "float"]
    made = cls(**given, **dict.fromkeys(names, one))
    assert names and all(type(getattr(made, name)) is float for name in names)


@pytest.mark.parametrize(
    "target",
    [np.array([0.85, 0.87]), [0.85, 0.87], (Fraction(85, 100), Decimal("0.87"))],
    ids=["array", "list", "fraction-decimal"],
)
def test_scheduler_config_stores_its_target_as_a_float_pair(target):
    """An array target made the config's == raise a bare ValueError, and
    a list target its hash a TypeError."""
    cfg = SchedulerConfig(target=target)
    assert type(cfg.target) is tuple and all(type(v) is float for v in cfg.target)
    assert cfg == SchedulerConfig() and hash(cfg) == hash(SchedulerConfig())


def test_benchmark_table_stores_each_accuracy_as_a_float():
    table = one_game_table(Fraction(117, 2))
    assert table.accuracies["A+B", "C", "S"] == 58.5
    assert all(type(v) is float for v in table.accuracies.values())


def test_sample_starts_seeded():
    a = sample_starts(8, np.random.default_rng(4))
    b = sample_starts(8, np.random.default_rng(4))
    assert a == b
    assert all(0.0 <= s.x <= 1.0 and 0.0 <= s.y <= 1.0 for s in a)
    with pytest.raises(ValidationError):
        sample_starts(0, np.random.default_rng(4))


def test_trajectory_shape_validation():
    with pytest.raises(ValidationError):
        Trajectory(np.zeros(3), np.zeros((2, 2)), None, "horizon")


def test_trajectory_reason_validation():
    Trajectory(np.zeros(2), np.zeros((2, 2)), None, "budget")
    for converged_to, reason in (
        (None, "corner"),
        (PopulationState(0.0, 0.0), "horizon"),
        (None, "stalled"),
    ):
        with pytest.raises(ValidationError):
            Trajectory(np.zeros(2), np.zeros((2, 2)), converged_to, reason)


def test_write_trajectories_csv(fixture_params, tmp_path):
    trajs = phase_portrait(
        fixture_params,
        [(0.2, 0.9), (0.9, 0.2)],
        IntegratorConfig(t_max=1.0),
    )
    path = tmp_path / "paths.csv"
    write_trajectories_csv(trajs, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trajectory_id", "t", "x", "y"]
    assert len(rows) == 1 + sum(len(t.times) for t in trajs)
    # repr serialization round-trips exactly
    first = rows[1]
    assert int(first[0]) == 0
    assert float(first[1]) == trajs[0].times[0]
    assert float(first[2]) == trajs[0].states[0, 0]
    last = rows[-1]
    assert int(last[0]) == 1
    assert float(last[3]) == trajs[1].states[-1, 1]


def assert_same_csv_bytes(trajs, tmp_path):
    path, ref = tmp_path / "paths.csv", tmp_path / "reference.csv"
    write_trajectories_csv(trajs, path)
    reference_write_trajectories_csv(trajs, ref)
    assert path.read_bytes() == ref.read_bytes()


def test_write_trajectories_csv_bytes_on_awkward_floats(tmp_path):
    values = np.array(AWKWARD_FLOATS)
    trajs = [
        Trajectory(np.roll(values, k), np.column_stack((values, values[::-1])), None, "horizon")
        for k in range(11)
    ]
    trajs.append(Trajectory(np.array([1e-05]), np.array([[5e-324, -0.0]]), None, "budget"))
    assert_same_csv_bytes(trajs, tmp_path)


def test_write_trajectories_csv_bytes_on_shared_times(tmp_path):
    """Times formatted once for the longest path are reused only by
    paths whose times are a byte-for-byte prefix of its times: not by
    one that starts at -0.0 (== 0.0), one whose step was halved, or one
    with another NaN."""
    times = [0.0]
    for _ in range(39):
        times.append(times[-1] + 0.01)
    base = np.array(times + [math.nan])
    halved = base.copy()
    halved[11:] = halved[10] + 0.005 * np.arange(1, 31)
    negative_zero = base[:30].copy()
    negative_zero[0] = -0.0
    other_nan = base[:6].copy()
    other_nan[5] = -math.nan
    rng = np.random.default_rng(7)

    def path(ts):
        return Trajectory(ts, rng.uniform(0.0, 1.0, (len(ts), 2)), None, "horizon")

    trajs = [path(t) for t in (
        base[:20], negative_zero, base, halved, base.copy(), other_nan, base[:1],
        np.array([-0.0]), base[:40],
    )]
    assert_same_csv_bytes(trajs, tmp_path)
    assert_same_csv_bytes([], tmp_path)


def test_write_trajectories_csv_bytes_across_block_bounds(tmp_path):
    """Rows are formatted BLOCK_ROWS at a time.  A 10 000-sample path
    whose times later paths share, prefixes of it one block long and one
    row longer, and paths whose times are not a prefix: the second
    longest of them ends inside a block, where the longest path passes
    from shared time strings to its own."""
    rng = np.random.default_rng(17)
    n = 10_000
    times = np.concatenate(([0.0], np.cumsum(rng.uniform(0.0, 0.02, n - 1))))
    other = times.copy()
    other[BLOCK_ROWS // 2] = np.nextafter(other[BLOCK_ROWS // 2], 1.0)
    lengths = [(times, n), (times, BLOCK_ROWS), (times, BLOCK_ROWS + 1),
               (other, 9_000), (other, BLOCK_ROWS + 1), (times, 1)]
    assert 9_000 % BLOCK_ROWS and max(k for _, k in lengths[1:]) == 9_000
    trajs = [Trajectory(ts[:k], rng.uniform(0.0, 1.0, (k, 2)), None, "horizon")
             for ts, k in lengths]
    assert_same_csv_bytes(trajs, tmp_path)
    assert_same_csv_bytes(trajs[1:3], tmp_path)


def test_trajectory_integer_arrays_are_written_as_floats(tmp_path):
    """Integer times and states become float64, so the writer prints
    0.0 where it printed 0 and agrees with the csv-module reference."""
    traj = Trajectory(np.array([0, 1]), np.array([[0, 1], [1, 0]]), None, "horizon")
    assert traj.times.dtype == traj.states.dtype == np.float64
    assert_same_csv_bytes([traj], tmp_path)
    assert (tmp_path / "paths.csv").read_text().splitlines()[1] == "0,0.0,0.0,1.0"
    times = np.linspace(0.0, 1.0, 3)
    assert Trajectory(times, np.zeros((3, 2)), None, "horizon").times is times


@pytest.mark.parametrize("n_starts", [5, 2 * _kernels.BATCH_MIN_LANES + 6])
def test_write_trajectories_csv_bytes_on_phase_portrait(fixture_params, tmp_path, n_starts):
    """Starts handed to the scalar loop at once, and a batch that hands
    its last lanes over later."""
    starts = sample_starts(n_starts, np.random.default_rng(3))
    trajs = phase_portrait(fixture_params, starts, IntegratorConfig(t_max=20.0))
    assert_same_csv_bytes(trajs, tmp_path)


# ----------------------------------------------------------------- kernels


def rk4_step_walk(a, b, c, e, x, y, dt, t_max, stop_tol):
    """rk4_path's samples, as an (n, 3) array of (t, x, y), and its
    terminal code, rebuilt from public rk4_step calls and the stopping
    rules its docstring gives, which end the path before a NaN sample."""
    n_max = 2 * int(t_max / dt) + 16
    t = 0.0
    samples = [(t, x, y)]
    while True:
        if stop_tol >= 0.0:
            for k, (cx, cy) in enumerate(CORNERS):
                if (x - cx) ** 2 + (y - cy) ** 2 <= stop_tol * stop_tol:
                    return np.array(samples), k
        if t >= t_max - 1e-12:
            return np.array(samples), _kernels.TERM_HORIZON
        if len(samples) >= n_max:
            return np.array(samples), _kernels.TERM_BUDGET
        h = dt if t + dt <= t_max else t_max - t
        x, y, h = _kernels.rk4_step(a, b, c, e, x, y, h)
        if math.isnan(x) or math.isnan(y):
            return np.array(samples), _kernels.TERM_DIVERGED
        t += h
        samples.append((t, x, y))


#: Field coefficients from the fixture's scale to ones whose products
#: overflow to inf and then NaN within a step.
COEFFICIENTS = st.one_of(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-1.7e308, max_value=1.7e308),
    st.sampled_from([1e300, -1e300, 1.7e308]),
)
#: Starts on the square's edges, signed zero and the least subnormal
#: included, and anywhere inside it.
EDGE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
)
FIXTURE_COEFFICIENTS = field_coefficients(FIXTURE)


@settings(max_examples=300, deadline=None)
@given(
    coefficients=st.tuples(COEFFICIENTS, COEFFICIENTS, COEFFICIENTS, COEFFICIENTS),
    start=st.tuples(EDGE, EDGE),
    dt=st.floats(min_value=1e-3, max_value=2.0),
    steps=st.floats(min_value=1.0, max_value=40.0),
    stop_tol=st.sampled_from([-1.0, 1e-3, 0.3]),
)
# the fixture game to a corner, and unstopped to a shortened last step
@example(coefficients=FIXTURE_COEFFICIENTS, start=(0.25, 0.8), dt=0.01, steps=2000.0,
         stop_tol=1e-3)
@example(coefficients=FIXTURE_COEFFICIENTS, start=(0.3, 0.7), dt=0.01, steps=100.5,
         stop_tol=-1.0)
# a first attempt that lands just above 1 or just below 0, inside
# CLAMP_TOL, and is clamped
@example(coefficients=(1.181705378839979, 5.100122408660855, -3.3883647570507383,
                       0.837332118762542),
         start=(0.9999999972085007, 0.44516323996800733), dt=1.0, steps=3.0,
         stop_tol=-1.0)
@example(coefficients=(-1.1514045608258971, -1.3462458154956867, -2.443308684517121,
                       4.326847791646987),
         start=(1.4401446737901234e-07, 0.7009350561732821), dt=2.0, steps=3.0,
         stop_tol=-1.0)
# rejected attempts retried at half the step; overflow to NaN
@example(coefficients=(5.0, 0.0, -5.0, 0.0), start=(0.5, 0.5), dt=2.0, steps=3.0,
         stop_tol=-1.0)
@example(coefficients=(1.7e308, -1.7e308, 1e300, 1.7e308), start=(0.5, -0.0), dt=2.0,
         steps=5.0, stop_tol=1e-3)
def test_rk4_path_matches_repeated_step_rk4(coefficients, start, dt, steps, stop_tol):
    """The whole recorded path is a walk of public rk4_step calls, bit
    for bit: each step its first attempt takes without rk4_step, each
    halved or clamped one, and the corner, horizon, budget and NaN
    stops."""
    t_max = dt * steps
    ts, xs, ys, term = _kernels.rk4_path(*coefficients, *start, dt, t_max, stop_tol)
    want, want_term = rk4_step_walk(*coefficients, *start, dt, t_max, stop_tol)
    assert np.column_stack((ts, xs, ys)).tobytes() == want.tobytes()
    assert term == want_term


@settings(max_examples=300, deadline=None)
@given(
    coefficients=st.tuples(COEFFICIENTS, COEFFICIENTS, COEFFICIENTS, COEFFICIENTS),
    states=st.lists(st.tuples(EDGE, EDGE), min_size=1, max_size=6),
    others=st.lists(st.tuples(EDGE, EDGE), min_size=6, max_size=6),
    h=st.floats(min_value=0.0, max_value=2.0, exclude_min=True),
)
# overflow to inf and NaN within the attempt
@example(coefficients=(1.7e308, -1.7e308, 1e300, 1.7e308), states=[(0.5, -0.0), (0.0, 0.5)],
         others=[(0.25, 0.75)] * 6, h=2.0)
# the shortened last step of dt = 0.01 to t_max = 1.005, whose factors
# rk4_paths makes apart from dt's, and a subnormal h, whose 0.5 * h
# rounds up and h / 6.0 to zero
@example(coefficients=FIXTURE_COEFFICIENTS, states=[(0.3, 0.7), (0.9, 0.1)],
         others=[(0.25, 0.75)] * 6, h=0.01 * 100.5 - sum([0.01] * 100))
@example(coefficients=FIXTURE_COEFFICIENTS, states=[(0.3, 0.7), (5e-324, 1.0)],
         others=[(0.25, 0.75)] * 6, h=1.5e-323)
def test_stacked_attempt_matches_rk4_attempt(coefficients, states, others, h):
    """The batched sweep's attempt on m states in the flat layout [x_0
    ... x_{m-1}, y_{m-1} ... y_0] is rk4_attempt on each state's floats,
    bit for bit, with p and q the rows [a] * m + [c] * m and [b] * m +
    [e] * m and h made into the step's factors as rk4_paths makes them.
    Every call goes through one workspace, on two state sets in turn, so
    a stage that reads a value left from the call before fails; the
    inputs come back unchanged."""
    a, b, c, e = coefficients
    m = len(states)
    p, q = np.repeat((a, c), m), np.repeat((b, e), m)
    work = _kernels.stacked_workspace(m)
    factors = _kernels._step_factors(h)
    for batch in (states, others[:m]):
        want = np.array([_kernels.rk4_attempt(a, b, c, e, x, y, h) for x, y in batch])
        # as rk4_paths calls it: the state and result in consecutive rows
        # of one chunk buffer, y in reversed lane order
        buf = np.full((2, 2 * m), math.nan)
        xs, ys = np.array(batch).T
        buf[0] = np.concatenate((xs, ys[::-1]))
        inputs = [v.copy() for v in (p, q, buf[0])]
        with np.errstate(over="ignore", invalid="ignore"):
            out = _kernels.rk4_attempt_stacked(p, q, buf[0], buf[0, ::-1], factors, buf[1], work)
        assert np.shares_memory(out, buf[1])
        assert buf[1].tobytes() == np.concatenate((want[:, 0], want[::-1, 1])).tobytes()
        for v, before in zip((p, q, buf[0]), inputs):
            assert v.tobytes() == before.tobytes()


@pytest.mark.parametrize("m", [1, 5])
def test_stacked_workspace_hands_out_flat_rows(m):
    """stacked_workspace(m) gives rows of 2 * m floats: the stage state's
    partner view is its exact reversal, in its memory, and f2 and f3 are
    also one row of 4 * m for the doubling call; no two stages share
    memory."""
    z, z_rev, f23, *stages = _kernels.stacked_workspace(m)
    rows = (z, *stages)
    assert all(v.shape == (2 * m,) for v in (z_rev, *rows)) and f23.shape == (4 * m,)
    z[:] = np.arange(2 * m)
    assert np.shares_memory(z, z_rev) and z_rev.tolist() == z.tolist()[::-1]
    _, f2, f3, _, _ = stages
    f23[:] = np.arange(4 * m)
    assert np.concatenate((f2, f3)).tolist() == f23.tolist()
    assert not any(np.shares_memory(v, w) for i, v in enumerate(rows) for w in rows[i + 1:])


def _count_batched_steps(monkeypatch):
    """The operands of each batched step rk4_paths takes from here on."""
    steps = []
    attempt = _kernels.rk4_attempt_stacked

    def counted(*args):
        steps.append(args)
        return attempt(*args)

    monkeypatch.setattr(_kernels, "rk4_attempt_stacked", counted)
    return steps


def test_batched_steps_take_only_flat_rows(monkeypatch):
    """Every operand of a batched step is one row, and the state's
    partner view is its reversal: no ufunc call of a step iterates a
    2-D array read in reverse."""
    steps = _count_batched_steps(monkeypatch)
    phase_portrait(FIXTURE, RANDOM_STARTS, IntegratorConfig(t_max=3.0))
    assert steps
    for p, q, s, s_rev, factors, out, work in steps:
        assert all(v.ndim == 1 for v in (p, q, s, s_rev, out, *work))
        assert np.shares_memory(s, s_rev) and s_rev.strides == (-s.itemsize,)


def test_batch_that_every_lane_leaves_at_its_start_takes_one_step(monkeypatch):
    """The lanes of leave_all_at_start all leave at their first sample,
    so the batch stops at the end of its first chunk, after one step,
    instead of computing a whole chunk of discarded steps; every lane is
    still simulate's, bit for bit."""
    steps = _count_batched_steps(monkeypatch)
    params, starts, cfg, _ = BATCH_CASES["leave_all_at_start"]
    batch = phase_portrait(params, starts, cfg)
    assert len(steps) <= 1
    for start, got in zip(starts, batch):
        want = simulate(params, start, cfg)
        assert got.times.tobytes() == want.times.tobytes()
        assert got.states.tobytes() == want.states.tobytes()


def test_lanes_that_leave_at_their_start_take_one_batched_step(monkeypatch):
    """In box_not_ball, 24 of the 81 starts leave at their start while
    the others stay batched: the first chunk, one step long, drops them,
    so the second step runs only the 57 lanes whose own leave sample is
    past 0; every lane is still simulate's, bit for bit."""
    steps = _count_batched_steps(monkeypatch)
    params, starts, cfg, _ = BATCH_CASES["box_not_ball"]
    batch = phase_portrait(params, starts, cfg)
    own = [own_leave(params, t, cfg) for t in batch]
    assert (len(starts), sum(j > 0 for j in own)) == (81, 57)
    lanes = [len(p) // 2 for p, *_ in steps]
    assert lanes[:2] == [81, 57]
    for start, got in zip(starts, batch):
        want = simulate(params, start, cfg)
        assert got.times.tobytes() == want.times.tobytes()
        assert got.states.tobytes() == want.states.tobytes()


def test_stacked_attempt_constants_are_read_only():
    """The stacked attempt's constant operands, the module's and a step's
    factors, are read-only 0-d float64 arrays: a stage that wrote into
    one would change every later step."""
    for v in (_kernels._ONE, _kernels._TWO, *_kernels._step_factors(0.01)):
        assert v.shape == () and v.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            v[()] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            np.add(v, 1.0, out=v)
    assert [float(v) for v in _kernels._step_factors(0.01)] == [0.01, 0.5 * 0.01, 0.01 / 6.0]


# a lane whose every attempt is rejected makes 64 of them per step, in
# rk4_paths and in rk4_path alike, so the paths are kept short
@settings(max_examples=40, deadline=None)
@given(
    coefficients=st.tuples(COEFFICIENTS, COEFFICIENTS, COEFFICIENTS, COEFFICIENTS),
    starts=st.lists(st.tuples(EDGE, EDGE), min_size=2 * LANES, max_size=2 * LANES + 8),
    dt=st.floats(min_value=1e-3, max_value=2.0),
    steps=st.floats(min_value=1.0, max_value=8.0),
    stop_tol=st.sampled_from([-1.0, 1e-3, 0.3]),
)
# lanes overflow to NaN while the sweep is batched
@example(coefficients=(1.7e308, -1.7e308, 1e300, 1.7e308), starts=list(RANDOM_STARTS[:2 * LANES]),
         dt=2.0, steps=5.0, stop_tol=1e-3)
# at one batched step some lanes stay and others leave, to be halved
# or clamped onto the square
@example(coefficients=FIXTURE_COEFFICIENTS, starts=list(RANDOM_STARTS[:2 * LANES]), dt=2.0,
         steps=8.0, stop_tol=-1.0)
def test_rk4_paths_matches_rk4_path_per_start(coefficients, starts, dt, steps, stop_tol):
    """Every lane of the batched sweep is bit for bit rk4_path from its
    start, whichever lanes leave the batch, and at whichever sample."""
    t_max = dt * steps
    # huge coefficients overflow to inf and NaN on purpose
    with np.errstate(over="ignore", invalid="ignore"):
        paths = _kernels.rk4_paths(
            *coefficients, [s[0] for s in starts], [s[1] for s in starts],
            dt, t_max, stop_tol,
        )
    for start, (ts, states, term) in zip(starts, paths):
        want_ts, xs, ys, want_term = _kernels.rk4_path(
            *coefficients, *start, dt, t_max, stop_tol
        )
        assert ts.tobytes() == want_ts.tobytes()
        assert states.tobytes() == np.column_stack((xs, ys)).tobytes()
        assert term == want_term


# sqrt of half the least subnormal: a point closer than this to a corner
# has a squared distance of 0 there, inside any stop ball
UNDERFLOW_DISTANCE = math.sqrt(5e-324) / math.sqrt(2.0)


@settings(max_examples=300, deadline=None)
@given(
    stop_tol=st.one_of(
        st.floats(min_value=1e-320, max_value=1e-150),
        st.floats(min_value=1e-150, max_value=0.5),
        st.floats(min_value=0.5, max_value=2.0),
    ),
    corner=st.sampled_from(CORNERS),
    axis=st.sampled_from(((1.0, 0.0), (0.0, 1.0), (math.sqrt(0.5), math.sqrt(0.5)))),
    scale=st.sampled_from(("stop_tol", "underflow")),
    ulps=st.integers(min_value=-8, max_value=8),
)
@example(stop_tol=1e-170, corner=CORNERS[0], axis=(1.0, 0.0), scale="underflow", ulps=-1)
@example(stop_tol=0.1, corner=CORNERS[3], axis=(0.0, 1.0), scale="stop_tol", ulps=0)
def test_box_pretest_keeps_every_corner_stop(stop_tol, corner, axis, scale, ulps):
    """Both kernels stop at the first sample exactly when the start is in
    a stop ball, and at the first such corner in CORNERS order: the box
    test in front of the ball test drops no start, at the ball's edge or
    where the squared distance underflows."""
    distance = (stop_tol if scale == "stop_tol" else UNDERFLOW_DISTANCE) * (1.0 + ulps * 2.0**-52)
    x, y = (min(max(abs(c - distance * u), 0.0), 1.0) for c, u in zip(corner, axis))
    balls = (k for k, (cx, cy) in enumerate(CORNERS)
             if (x - cx) ** 2 + (y - cy) ** 2 <= stop_tol * stop_tol)
    want = next(balls, -1)
    a, b, c, e = field_coefficients(FIXTURE)
    ts, _, _, term = _kernels.rk4_path(a, b, c, e, x, y, 0.01, 0.01, stop_tol)
    [(batch_ts, _, batch_term), *_] = _kernels.rk4_paths(
        a, b, c, e, [x] * LANES, [y] * LANES, 0.01, 0.01, stop_tol
    )
    for n, got in ((len(ts), term), (len(batch_ts), batch_term)):
        assert (n == 1 and got >= 0) == (want >= 0)
        if want >= 0:
            assert got == want


def test_euler_kernel_matches_public_rhs_walk(fixture_params):
    """The Euler reference path reproduces a plain loop over the public
    right-hand side exactly."""
    a, b, c, e = field_coefficients(fixture_params)
    xs, ys = euler_path(a, b, c, e, 0.3, 0.7, 1e-3, 5000, 5000)
    ref = euler_flow(fixture_params, PopulationState(0.3, 0.7), 1e-3, 5.0)
    assert (xs[-1], ys[-1]) == (ref.x, ref.y)


def test_rk4_negative_stop_tol_disables_stopping(fixture_params):
    a, b, c, e = field_coefficients(fixture_params)
    # starting on a corner would normally terminate at step 0
    ts, xs, ys, term = _kernels.rk4_path(a, b, c, e, 0.0, 0.0, 0.01, 1.0, -1.0)
    assert term == -1
    assert len(ts) == 101


def test_rk4_vs_euler_fixture_scale(fixture_params):
    """O(1) payoffs: the dt=1e-5 Euler reference itself carries error
    around 1e-5 near the saddle, so the documented bound here is 1e-4;
    the tight 1e-6 contract is exercised in the weak-field regime below
    and in the acceptance suite."""
    a, b, c, e = field_coefficients(fixture_params)
    for start in ((0.3, 0.7), (0.55, 0.45)):
        ts, xs, ys, _ = _kernels.rk4_path(
            a, b, c, e, start[0], start[1], 0.01, 10.0, -1.0
        )
        ex, ey = euler_path(
            a, b, c, e, start[0], start[1], 1e-5, 1_000_000, 1_000_000
        )
        assert abs(xs[-1] - ex[-1]) < 1e-4
        assert abs(ys[-1] - ey[-1]) < 1e-4


def test_rk4_vs_euler_weak_field(rng):
    for _ in range(3):
        p, start = sample_gentle_pair(rng)
        a, b, c, e = field_coefficients(p)
        ts, xs, ys, _ = _kernels.rk4_path(
            a, b, c, e, start.x, start.y, 0.01, 10.0, -1.0
        )
        ex, ey = euler_path(
            a, b, c, e, start.x, start.y, 1e-5, 1_000_000, 1_000_000
        )
        assert abs(xs[-1] - ex[-1]) < 1e-6
        assert abs(ys[-1] - ey[-1]) < 1e-6
