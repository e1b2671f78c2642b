"""Release gate: one test per shipping criterion.

Every test prints a single ``[PASS]``/``[FAIL]`` line with the measured
quantity before asserting, so ``pytest tests/test_acceptance.py -v -s``
reads as a checklist.
"""

import math
import time
from collections import Counter

import numpy as np

from evoloss import (
    IntegratorConfig,
    LabConfig,
    LossWeights,
    SchedulerConfig,
    StabilityClass,
    barlow_twins,
    enumerate_equilibria,
    field_coefficients,
    info_nce,
    load_benchmark,
    replicator_rhs,
    saddle_point,
    sample_starts,
    simulate,
    train_episode,
)
from evoloss import _kernels
from evoloss.cli import main as cli_main
from evoloss.scheduler import reward

from helpers import (
    classify_by_eigen,
    cosine,
    euler_path,
    sample_gentle_pair,
    sample_saddle_params,
)

FIVE_POINT_PATTERN = (
    StabilityClass.UNSTABLE_POINT,
    StabilityClass.STABLE_POINT,
    StabilityClass.STABLE_POINT,
    StabilityClass.UNSTABLE_POINT,
    StabilityClass.SADDLE_POINT,
)

TRAIN_CFG_TEXT = (
    "steps = 400\n"
    "input_dim = 8\n"
    "feature_dim = 4\n"
    "batch_size = 16\n"
    "update_period = 100\n"
    "seed = 11\n"
)


def _report(num, name, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {name} — {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def fd_grad(fn, z, h=1e-6):
    g = np.zeros_like(z)
    for idx in np.ndindex(z.shape):
        zp = z.copy()
        zp[idx] += h
        zm = z.copy()
        zm[idx] -= h
        g[idx] = (fn(zp) - fn(zm)) / (2.0 * h)
    return g


def test_criterion_1_equilibrium_pattern_with_eigen_crosscheck():
    rng = np.random.default_rng(101)
    draws = 120
    bad = 0
    start = time.perf_counter()
    for _ in range(draws):
        p = sample_saddle_params(rng)
        eqs = enumerate_equilibria(p)
        if tuple(eq.cls for eq in eqs) != FIVE_POINT_PATTERN:
            bad += 1
        elif any(classify_by_eigen(p, eq.point) != eq.cls for eq in eqs):
            bad += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        "equilibrium pattern and eigenvalue cross-check",
        bad == 0 and elapsed < 5.0,
        f"{draws} parameter draws, {bad} mismatches, {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_2_fixture_saddle_location(fixture_params):
    star = saddle_point(fixture_params)
    loc_err = max(abs(star.x - 2.5 / 3.0), abs(star.y - 2.5 / 3.0))
    dx, dy = replicator_rhs(fixture_params, star)
    residual = max(abs(dx), abs(dy))
    _report(
        2,
        "fixture saddle at (0.833333, 0.833333)",
        loc_err <= 1e-9 and residual <= 1e-12,
        f"location error {loc_err:.2e} (tol 1e-9), field residual {residual:.2e} (tol 1e-12)",
    )


def test_criterion_3_interior_starts_reach_pure_corners(fixture_params):
    starts = sample_starts(100, np.random.default_rng(7))
    simulate(fixture_params, starts[0])  # warm up outside the timed region
    t0 = time.perf_counter()
    trajectories = [simulate(fixture_params, s, IntegratorConfig()) for s in starts]
    elapsed = time.perf_counter() - t0

    basins = Counter()
    worst_dist = 0.0
    unconverged = 0
    for traj in trajectories:
        if traj.converged_to is None:
            unconverged += 1
            continue
        corner = (traj.converged_to.x, traj.converged_to.y)
        basins[corner] += 1
        final = traj.final_state
        worst_dist = max(
            worst_dist, math.hypot(final.x - corner[0], final.y - corner[1])
        )
    ok = (
        unconverged == 0
        and set(basins) == {(0.0, 1.0), (1.0, 0.0)}
        and worst_dist <= 1e-3
        and elapsed < 10.0
    )
    _report(
        3,
        "100 random starts split between the two pure corners",
        ok,
        f"basins {dict(basins)}, {unconverged} unconverged, worst distance "
        f"{worst_dist:.2e} (tol 1e-3), {elapsed:.2f}s (budget 10s)",
    )


def test_criterion_4_rk4_matches_fine_euler_reference():
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(20):
        p, start = sample_gentle_pair(rng)
        a, b, c, e = field_coefficients(p)
        _, xs, ys, _ = _kernels.rk4_path(
            a, b, c, e, start.x, start.y, 0.01, 10.0, -1.0
        )
        ex, ey = euler_path(
            a, b, c, e, start.x, start.y, 1e-5, 1_000_000, 1_000_000
        )
        worst = max(worst, abs(xs[-1] - ex[-1]), abs(ys[-1] - ey[-1]))
    _report(
        4,
        "RK4 (dt=0.01) agrees with Euler (dt=1e-5) at t=10",
        worst < 1e-6,
        f"20 random systems, worst componentwise gap {worst:.2e} (tol 1e-6)",
    )


def test_criterion_5_loss_values_and_gradients():
    z2 = np.array([[1.0, 0.0], [1.0, 0.0]])
    uniform_err = abs(info_nce(z2, z2)[0] - math.log(2.0))

    # all eight sign patterns: columns are zero-mean and mutually orthogonal,
    # so the cross-correlation of the batch with itself is exactly identity
    signs = np.array(
        [[sx, sy, sz] for sx in (1.0, -1.0) for sy in (1.0, -1.0) for sz in (1.0, -1.0)]
    )
    bt_at_identity, _ = barlow_twins(signs, signs)

    rng = np.random.default_rng(505)
    worst_rel = 0.0
    t0 = time.perf_counter()
    for loss_fn in (info_nce, barlow_twins):
        for _ in range(30):
            z1 = rng.normal(size=(8, 4))
            zb = rng.normal(size=(8, 4))
            _, (g1, g2) = loss_fn(z1, zb)
            num1 = fd_grad(lambda z: loss_fn(z, zb)[0], z1)
            num2 = fd_grad(lambda z: loss_fn(z1, z)[0], zb)
            for num, ana in ((num1, g1), (num2, g2)):
                rel = np.linalg.norm(num - ana) / np.linalg.norm(ana)
                worst_rel = max(worst_rel, rel)
    elapsed = time.perf_counter() - t0
    ok = (
        uniform_err <= 1e-9
        and abs(bt_at_identity) <= 1e-10
        and worst_rel < 1e-4
        and elapsed < 5.0
    )
    _report(
        5,
        "loss anchors and finite-difference gradients",
        ok,
        f"uniform InfoNCE off ln2 by {uniform_err:.1e} (tol 1e-9), redundancy loss at "
        f"identity {abs(bt_at_identity):.1e} (tol 1e-10), worst gradient rel err "
        f"{worst_rel:.1e} (tol 1e-4), {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_6_benchmark_metrics_to_double_precision(data_dir):
    table = load_benchmark(data_dir / "benchmark_small.csv")
    from evoloss import discriminability, generalizability

    d = discriminability(table.sl_accuracy("C10"), table.accuracy("BT", "C10", "C10"))
    g = generalizability(table.sl_accuracy("S10"), table.accuracy("BT", "C10", "S10"))
    d_ok = d == 1.0 / (99.37 - 83.0) and math.isclose(d, 1.0 / 16.37, rel_tol=1e-14)
    g_ok = g == 1.0 / 26.5 and g == 1.0 / (99.6 - 73.1)
    _report(
        6,
        "gap metrics from the benchmark fixture",
        d_ok and g_ok,
        f"D = {d!r} vs 1/16.37 = {1.0 / 16.37!r}; G = {g!r} vs 1/26.5 = {1.0 / 26.5!r}",
    )


def test_criterion_7_reward_shape():
    cfg = SchedulerConfig()
    parallel = reward(LossWeights(0.425, 0.435), cfg, 1.0)  # 0.5*(0.85, 0.87)
    parallel_err = abs(parallel - 1.0)

    rng = np.random.default_rng(77)
    lo = math.inf
    hi = -math.inf
    bound_hi = 1.0 + cfg.explore_weight * cfg.reward_cap
    for _ in range(500):
        w = LossWeights(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
        prev = None if rng.uniform() < 0.2 else rng.uniform(0.0, 5.0)
        r = reward(w, cfg, rng.uniform(0.0, 5.0), prev)
        lo = min(lo, r)
        hi = max(hi, r)
    near = reward(LossWeights(0.87, 0.85), cfg, 1.0)
    near_err = abs(near - 0.99973)
    ok = (
        parallel_err <= 1e-12
        and lo >= -1.0 - 1e-12
        and hi <= bound_hi + 1e-12
        and near_err <= 1e-5
    )
    _report(
        7,
        "scheduler reward anchors and bounds",
        ok,
        f"parallel error {parallel_err:.1e} (tol 1e-12), 500 samples in "
        f"[{lo:.3f}, {hi:.3f}] ⊂ [-1, {bound_hi}], swapped-weights reward {near!r} "
        f"within {near_err:.1e} of 0.99973 (tol 1e-5)",
    )


def test_criterion_8_episode_tracks_saddle_target():
    cfg = LabConfig(steps=50_000, seed=0)
    sched = SchedulerConfig(target=(0.8333, 0.8333))
    t0 = time.perf_counter()
    log = train_episode(cfg, sched)
    elapsed = time.perf_counter() - t0
    tail_alpha = float(log.alphas[-1000:].mean())
    tail_beta = float(log.betas[-1000:].mean())
    cos = cosine(np.array([tail_alpha, tail_beta]), np.array(sched.target))
    _report(
        8,
        "50k-step episode aligns weights with the target mix",
        cos >= 0.995 and elapsed < 300.0,
        f"trailing-1000 mean weights ({tail_alpha:.4f}, {tail_beta:.4f}), cosine "
        f"{cos:.6f} (need ≥ 0.995), {elapsed:.1f}s (budget 300s)",
    )


def test_criterion_9_cli_training_is_reproducible(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN_CFG_TEXT, encoding="utf-8")
    outputs = []
    for name in ("a", "b"):
        run_dir = tmp_path / name
        run_dir.mkdir()
        log = run_dir / "log.csv"
        code = cli_main(["train", "--config", str(cfg), "--out", str(log)])
        outputs.append(
            (code, log.read_bytes(), (run_dir / "log.csv.weights").read_bytes())
        )
    (code_a, log_a, w_a), (code_b, log_b, w_b) = outputs
    ok = code_a == code_b == 0 and log_a == log_b and w_a == w_b
    _report(
        9,
        "repeated CLI training runs are byte-identical",
        ok,
        f"exit codes ({code_a}, {code_b}), log bytes "
        f"{'match' if log_a == log_b else 'differ'} ({len(log_a)} bytes), weight bytes "
        f"{'match' if w_a == w_b else 'differ'} ({len(w_a)} bytes)",
    )
