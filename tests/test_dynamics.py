"""Integrators: single steps, full trajectories, basins, CSV export, and
agreement between the path kernel and the public single-step function."""

import csv

import numpy as np
import pytest

from evoloss import (
    IntegratorConfig,
    PayoffParams,
    PopulationState,
    Trajectory,
    ValidationError,
    field_coefficients,
    phase_portrait,
    saddle_point,
    sample_starts,
    simulate,
    step_rk4,
    write_trajectories_csv,
)
from evoloss import _kernels, dynamics, game, stability
from evoloss.dynamics import CORNERS

from helpers import euler_flow, sample_gentle_pair


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
        IntegratorConfig(clamp_tol=-1e-9)
    with pytest.raises(ValidationError):
        IntegratorConfig(t_max=float("inf"))


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
    """The path kernel and the public single-step function share their
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
    batch = phase_portrait(STIFF, [(0.5, 0.01)] * dynamics.BATCH_MIN_STARTS, cfg)
    assert all(t.reason == "budget" for t in batch)


def _time_after(steps, dt):
    t = 0.0
    for _ in range(steps):
        t += dt
    return t


T_199 = _time_after(199, 0.01)
FIXTURE = PayoffParams(g1=1.5, d1=1.0, g2=1.0, d2=1.5, n1=0.5, n2=0.5)
EDGE_STARTS = (*CORNERS, PopulationState(-0.0, 0.5), PopulationState(0.5, -0.0))

# name: (params, extra starts, config, stop reasons of the whole batch)
BATCH_CASES = {
    # with corner starts and signed zeros
    "default": (FIXTURE, EDGE_STARTS, IntegratorConfig(), {"corner"}),
    # the horizon cuts the last step short; the saddle and the diagonal
    # never reach a corner
    "horizon_cut": (FIXTURE, ((5 / 6, 5 / 6), (0.3, 0.3), *CORNERS),
                    IntegratorConfig(t_max=3.305), {"corner", "horizon"}),
    # t + dt lands exactly on t_max after 199 steps, so the last step is
    # a full dt, although t_max - t is not dt
    "horizon_exact": (FIXTURE, (), IntegratorConfig(t_max=T_199 + 0.01), {"horizon"}),
    # exact clamping: any overshoot at all is halved away
    "clamp_tol_0": (FIXTURE, EDGE_STARTS, IntegratorConfig(clamp_tol=0.0), {"corner"}),
    # the stop balls overlap: the first corner in CORNERS order wins
    "overlap": (FIXTURE, ((0.5, 0.5),), IntegratorConfig(stop_tol=0.75), {"corner"}),
    # halved steps on some lanes; (0.5, 0.01) and others run out of budget
    "budget": (STIFF, ((0.5, 0.01),), IntegratorConfig(dt=0.5, t_max=50.0),
               {"corner", "budget"}),
}


@pytest.mark.parametrize("case", BATCH_CASES)
def test_phase_portrait_batch_matches_per_start_simulate(case):
    """The batched sweep reproduces one simulate per start bit for bit:
    tobytes() also tells -0.0 from 0.0, which array_equal does not."""
    params, extra, cfg, reasons = BATCH_CASES[case]
    rng = np.random.default_rng(5)
    starts = [*extra, *sample_starts(dynamics.BATCH_MIN_STARTS, rng)]
    batch = phase_portrait(params, starts, cfg)
    assert len(batch) == len(starts)
    for start, got in zip(starts, batch):
        want = simulate(params, start, cfg)
        assert got.times.tobytes() == want.times.tobytes()
        assert got.states.tobytes() == want.states.tobytes()
        assert (got.converged_to, got.reason) == (want.converged_to, want.reason)
    assert {t.reason for t in batch} == reasons
    if case == "horizon_cut":
        assert np.diff(batch[0].times)[-1] < cfg.dt
    if case == "horizon_exact":
        assert cfg.t_max - T_199 != cfg.dt
        assert all(t.times[-2:].tolist() == [T_199, cfg.t_max] for t in batch)


def test_rk4_paths_matches_rk4_path_when_every_attempt_is_rejected(fixture_params):
    """A negative clamp_tol rejects every attempt: each step keeps the
    64th attempt and halves its step once more, until the budget ends
    the path.  Stopping is off, so the corner start runs on too."""
    a, b, c, e = field_coefficients(fixture_params)
    starts = ((0.3, 0.7), (0.0, 0.0), (0.9, 0.2))
    paths = _kernels.rk4_paths(
        a, b, c, e, [s[0] for s in starts], [s[1] for s in starts], 0.01, 0.05, -1.0, -1.0
    )
    for start, (ts, states, term) in zip(starts, paths):
        want_ts, xs, ys, want_term = _kernels.rk4_path(
            a, b, c, e, *start, 0.01, 0.05, -1.0, -1.0
        )
        assert ts.tobytes() == want_ts.tobytes()
        assert states.tobytes() == np.column_stack((xs, ys)).tobytes()
        assert term == want_term == _kernels.TERM_BUDGET
        assert ts[1] == 0.01 / 2**64


def test_phase_portrait_validates_starts(fixture_params):
    with pytest.raises(ValidationError):
        phase_portrait(fixture_params, [])
    with pytest.raises(ValidationError):
        phase_portrait(fixture_params, [(1.5, 0.5)])


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


# ----------------------------------------------------------------- kernels


def test_rk4_path_matches_repeated_step_rk4(fixture_params):
    """The whole recorded path is a walk of public single steps, bit for
    bit: one run to a corner, and one unstopped run whose last step is
    shortened to end at the horizon."""
    a, b, c, e = field_coefficients(fixture_params)
    dt = 0.01
    for start, t_max, stop_tol in (((0.25, 0.8), 20.0, 1e-3), ((0.3, 0.7), 1.005, -1.0)):
        ts, xs, ys, term = _kernels.rk4_path(
            a, b, c, e, start[0], start[1], dt, t_max, stop_tol, 1e-9
        )
        state = PopulationState(*start)
        t = 0.0
        for i in range(1, len(ts)):
            h = dt
            if t + h > t_max:
                h = t_max - t
            state = step_rk4(fixture_params, state, h)
            t += h
            assert (ts[i], xs[i], ys[i]) == (t, state.x, state.y)
        if stop_tol < 0.0:
            assert term == -1
            assert t == pytest.approx(t_max, abs=1e-9)
        else:
            assert np.hypot(*(np.array(state) - CORNERS[term])) <= stop_tol


def test_euler_kernel_matches_public_rhs_walk(fixture_params):
    """The Euler kernel reproduces a plain loop over the public
    right-hand side exactly."""
    a, b, c, e = field_coefficients(fixture_params)
    xs, ys = _kernels.euler_path(a, b, c, e, 0.3, 0.7, 1e-3, 5000, 5000)
    ref = euler_flow(fixture_params, PopulationState(0.3, 0.7), 1e-3, 5.0)
    assert (xs[-1], ys[-1]) == (ref.x, ref.y)


def test_rk4_negative_stop_tol_disables_stopping(fixture_params):
    a, b, c, e = field_coefficients(fixture_params)
    # starting on a corner would normally terminate at step 0
    ts, xs, ys, term = _kernels.rk4_path(a, b, c, e, 0.0, 0.0, 0.01, 1.0, -1.0, 1e-9)
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
            a, b, c, e, start[0], start[1], 0.01, 10.0, -1.0, 1e-9
        )
        ex, ey = _kernels.euler_path(
            a, b, c, e, start[0], start[1], 1e-5, 1_000_000, 1_000_000
        )
        assert abs(xs[-1] - ex[-1]) < 1e-4
        assert abs(ys[-1] - ey[-1]) < 1e-4


def test_rk4_vs_euler_weak_field(rng):
    for _ in range(3):
        p, start = sample_gentle_pair(rng)
        a, b, c, e = field_coefficients(p)
        ts, xs, ys, _ = _kernels.rk4_path(
            a, b, c, e, start.x, start.y, 0.01, 10.0, -1.0, 1e-9
        )
        ex, ey = _kernels.euler_path(
            a, b, c, e, start.x, start.y, 1e-5, 1_000_000, 1_000_000
        )
        assert abs(xs[-1] - ex[-1]) < 1e-6
        assert abs(ys[-1] - ey[-1]) < 1e-6
