"""The three workloads of the evoloss benchmark.

Each workload builds its inputs from the seed alone, then offers:

* ``op()``      one untraced operation through the public API;
* ``check(r)``  the output checks for one result (a list of problems);
* ``traced(t)`` the same operation with spans recorded by tracer t;
* ``same(a, b)`` whether a traced result equals the untraced one.

``train`` and ``basin_sweep`` rebuild their traced operation from the
package's public functions; ``cli_files`` swaps the names ``evoloss.cli``
and ``evoloss.lab`` look up for traced wrappers.  Either way the traced
result must equal the untraced one bit for bit.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import shutil
import statistics
import tempfile

import numpy as np

import evoloss
from evoloss import _kernels, cli, dynamics, lab

#: Values of tests/data/game_fixture.params: the symmetric toy game whose
#: interior saddle sits at (5/6, 5/6), so every start ends at (0,1) or (1,0).
FIXTURE_PARAMS = {"g1": 1.5, "d1": 1.0, "g2": 1.0, "d2": 1.5, "n1": 0.5, "n2": 0.5}
FIXTURE_BASINS = {(0.0, 1.0), (1.0, 0.0)}
#: Criterion 8's scheduler target.
TARGET = (0.8333, 0.8333)
COSINE_FLOOR = 0.995
TRAIL = 1000


def grid_starts(rng: np.random.Generator, g: int) -> list:
    """g*g uniform interior starts, one per cell of a g x g grid.

    Stratifying keeps the summed path length, and so the work per sweep,
    nearly the same from seed to seed; plain uniform draws of a few
    hundred starts vary it by several percent.
    """
    cell = np.arange(g * g)
    jitter = rng.uniform(0.05, 0.95, size=(g * g, 2))
    xs = (cell // g + jitter[:, 0]) / g
    ys = (cell % g + jitter[:, 1]) / g
    return [evoloss.PopulationState(float(x), float(y)) for x, y in zip(xs, ys)]


def trailing_cosine(log) -> float:
    pair = np.array([log.alphas[-TRAIL:].mean(), log.betas[-TRAIL:].mean()])
    target = np.asarray(TARGET)
    return float(pair @ target / (np.linalg.norm(pair) * np.linalg.norm(target)))


def final_loss(log) -> float:
    """Trailing-1000-step mean of loss_total."""
    return float(log.losses[-TRAIL:].mean())


class Train:
    """One criterion-8 training episode (LabConfig defaults: batch 32,
    input 16, feature 8; target (0.8333, 0.8333), update period 200),
    shortened to STEPS so that a run holds several episodes.  The loss
    has settled well before STEPS."""

    STEPS = 5000
    WARMUP_STEPS = 200
    unit = "steps"
    units_per_op = STEPS

    def __init__(self, seed: int, workdir: str):
        self.cfg = evoloss.LabConfig(steps=self.STEPS, seed=seed)
        self.sched = evoloss.SchedulerConfig(target=TARGET, update_period=200)
        self.first = None
        evoloss.train_episode(
            evoloss.LabConfig(steps=self.WARMUP_STEPS, seed=seed), self.sched
        )

    def op(self):
        return evoloss.train_episode(self.cfg, self.sched)

    def check(self, log) -> list:
        problems = []
        if not (np.all(np.isfinite(log.records)) and np.all(np.isfinite(log.final_weights))):
            problems.append("non-finite training record or weight")
        # A sanity check only: an untrained policy already meets it,
        # because the target lies on the diagonal.
        cos = trailing_cosine(log)
        if not cos >= COSINE_FLOOR:
            problems.append(f"trailing cosine {cos!r} below {COSINE_FLOOR}")
        if self.first is None:
            self.first = log
        elif not self.same(self.first, log):
            problems.append("episode differs from the first episode of the run")
        return problems

    def same(self, a, b) -> bool:
        return np.array_equal(a.records, b.records) and np.array_equal(
            a.final_weights, b.final_weights
        )

    def traced(self, t):
        """train_episode rebuilt from the public functions, with a span
        around every call into lab, losses and scheduler."""
        cfg, sched = self.cfg, self.sched
        batch = t.wrap("lab.gen_two_view_batch", evoloss.gen_two_view_batch)
        encode = t.wrap("lab.encoder_forward", evoloss.encoder_forward)
        observe = t.wrap("scheduler.observe_state", evoloss.observe_state)
        act = t.wrap("scheduler.policy_act", evoloss.policy_act)
        to_weights = t.wrap("scheduler.map_action", evoloss.map_action)
        info_nce = t.wrap("losses.info_nce", evoloss.info_nce)
        barlow_twins = t.wrap("losses.barlow_twins", evoloss.barlow_twins)
        score = t.wrap("scheduler.reward", evoloss.reward)
        transition = t.wrap("scheduler.transition", evoloss.Transition)
        update = t.wrap("scheduler.ppo_update", evoloss.ppo_update, keep=True)

        t.begin("lab.train_episode")
        rng = np.random.default_rng(cfg.seed)
        weights = evoloss.init_encoder(rng, cfg)
        policy = evoloss.init_policy(cfg.feature_dim, rng)
        records = np.empty((cfg.steps, len(lab.LOG_COLUMNS)))
        buffer = []
        loss_prev = None
        for step in range(cfg.steps):
            x1, x2 = batch(rng, cfg)
            z1 = encode(weights, x1)
            z2 = encode(weights, x2)
            state = observe(np.vstack((z1, z2)))
            action, log_prob, value = act(policy, state, rng)
            w = to_weights(action, sched)
            loss_gen, (gi1, gi2) = info_nce(z1, z2, evoloss.DEFAULT_TEMPERATURE)
            loss_dis, (gb1, gb2) = barlow_twins(z1, z2, evoloss.DEFAULT_OFFDIAG_WEIGHT)
            loss = w.alpha * loss_gen + w.beta * loss_dis
            g_z1 = w.alpha * gi1 + w.beta * gb1
            g_z2 = w.alpha * gi2 + w.beta * gb2
            weights = weights - cfg.learning_rate * (x1.T @ g_z1 + x2.T @ g_z2)
            r = score(w, sched, loss, loss_prev)
            loss_prev = loss
            buffer.append(transition(state, action, r, log_prob, value))
            if len(buffer) == sched.update_period:
                policy, _ = update(policy, buffer, sched)
                buffer = []
            records[step] = (step, w.alpha, w.beta, r, loss, loss_gen, loss_dis)
        t.end()
        log = evoloss.TrainingLog(records, weights, policy)
        t.calls["lab.train_episode"].append(((cfg, sched), log))
        return log


class BasinSweep:
    """phase_portrait of the fixture game over GRID**2 seeded interior
    starts, all trajectories kept in memory, then basin counts."""

    GRID = 20
    unit = "starts"
    units_per_op = GRID * GRID

    def __init__(self, seed: int, workdir: str):
        self.params = evoloss.PayoffParams(**FIXTURE_PARAMS)
        self.cfg = evoloss.IntegratorConfig()
        self.starts = grid_starts(np.random.default_rng(seed), self.GRID)
        self.first_counts = None
        evoloss.phase_portrait(self.params, self.starts[:8], self.cfg)

    def op(self):
        return evoloss.phase_portrait(self.params, self.starts, self.cfg)

    def check(self, trajectories) -> list:
        problems = []
        counts = {}
        for k, traj in enumerate(trajectories):
            corner = traj.converged_to
            key = None if corner is None else (corner.x, corner.y)
            counts[key] = counts.get(key, 0) + 1
            if key not in FIXTURE_BASINS:
                problems.append(f"start {k} ended in basin {key}")
                continue
            end = traj.final_state
            if math.hypot(end.x - key[0], end.y - key[1]) > self.cfg.stop_tol:
                problems.append(f"start {k} stopped outside stop_tol of {key}")
        if self.first_counts is None:
            self.first_counts = counts
        elif counts != self.first_counts:
            problems.append(f"basin counts {counts} differ from {self.first_counts}")
        return problems

    def same(self, a, b) -> bool:
        return len(a) == len(b) and all(
            np.array_equal(p.times, q.times)
            and np.array_equal(p.states, q.states)
            and p.converged_to == q.converged_to
            for p, q in zip(a, b)
        )

    def traced(self, t):
        """phase_portrait rebuilt as a per-start simulate loop; the kernel
        call inside simulate is traced through the module attribute."""
        simulate = t.wrap("dynamics.simulate", evoloss.simulate, keep=True)
        with t.patched([(_kernels, "rk4_path", "kernels.rk4_path", True)]):
            starts = [evoloss.check_state(s) for s in self.starts]
            return [simulate(self.params, s, self.cfg) for s in starts]


CLI_TRAIN_CONFIG = (
    "steps = 400\n"
    "input_dim = 8\n"
    "feature_dim = 4\n"
    "batch_size = 16\n"
    "update_period = 100\n"
)


def write_benchmark_table(path: str, rng: np.random.Generator) -> None:
    """A 78-row benchmark table over six datasets: supervised references,
    four SSL methods and two ensembles, each pretrained on two datasets
    and evaluated on all six."""
    datasets = [f"D{i}" for i in range(6)]
    rows = [("SL", d, d, rng.uniform(97.0, 99.9)) for d in datasets]
    for method in ("M0", "M1", "M2", "M3", "M0+M1", "M2+M3"):
        for pretrain in datasets[:2]:
            for eval_ds in datasets:
                rows.append((method, pretrain, eval_ds, rng.uniform(40.0, 92.0)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", "pretrain", "eval", "accuracy"])
        for method, pretrain, eval_ds, acc in rows:
            writer.writerow([method, pretrain, eval_ds, repr(round(float(acc), 2))])


class CliFiles:
    """Round trips of cli.main through its file boundaries: metrics on a
    generated 78-row table, saddle, equilibria --output, simulate
    --starts-file (GRID**2 starts, full trajectory CSV) and train at
    criterion 9's small config.  One round trip runs all five commands."""

    GRID = 4
    unit = "round_trips"
    units_per_op = 1

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 1])

        def j(name):
            return os.path.join(workdir, name)

        write_benchmark_table(j("bench.csv"), rng)
        with open(j("game.params"), "w", encoding="utf-8") as fh:
            fh.writelines(f"{k} = {v!r}\n" for k, v in FIXTURE_PARAMS.items())
        with open(j("starts.txt"), "w", encoding="utf-8") as fh:
            fh.writelines(f"{s.x!r},{s.y!r}\n" for s in grid_starts(rng, self.GRID))
        with open(j("train.cfg"), "w", encoding="utf-8") as fh:
            fh.write(CLI_TRAIN_CONFIG + f"seed = {seed}\n")
        self.commands = [
            ("metrics", ["metrics", "--input", j("bench.csv"), "--output", j("metrics.csv")]),
            ("saddle", ["saddle", "--params", j("game.params")]),
            ("equilibria", ["equilibria", "--params", j("game.params"),
                            "--output", j("equilibria.csv")]),
            ("simulate", ["simulate", "--params", j("game.params"),
                          "--starts-file", j("starts.txt"), "--out", j("paths.csv")]),
            ("train", ["train", "--config", j("train.cfg"), "--out", j("log.csv"),
                       "--weights-out", j("weights.txt")]),
        ]
        self.outputs = [j(n) for n in ("metrics.csv", "equilibria.csv", "paths.csv",
                                       "log.csv", "weights.txt")]
        self.paths_csv = j("paths.csv")
        self.first = None
        self.op()

    def _round_trip(self, main):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            codes = [main(name, argv) for name, argv in self.commands]
        return codes, out.getvalue()

    def op(self):
        return self._round_trip(lambda name, argv: cli.main(argv))

    def digests(self, result):
        codes, text = result
        files = []
        for path in self.outputs:
            with open(path, "rb") as fh:
                files.append(hashlib.sha256(fh.read()).hexdigest())
        return codes, hashlib.sha256(text.encode()).hexdigest(), files

    def check(self, result) -> list:
        problems = []
        codes, text = result
        if any(codes):
            problems.append(f"exit codes {codes}")
        if "unconverged: 0\n" not in text:
            problems.append("simulate reported unconverged paths")
        digest = self.digests(result)
        if self.first is None:
            self.first = digest
        elif digest != self.first:
            problems.append("outputs differ from the first round trip of the run")
        return problems

    def same(self, a, b) -> bool:
        return self.digests(a) == self.digests(b)

    def traced(self, t):
        targets = [
            (cli, "load_benchmark", "metrics.load_benchmark", False),
            (cli, "enumerate_equilibria", "stability.enumerate_equilibria", False),
            (dynamics, "simulate", "dynamics.simulate", True),
            (_kernels, "rk4_path", "kernels.rk4_path", True),
            (cli, "write_trajectories_csv", "dynamics.write_trajectories_csv", False),
            (cli, "train_episode", "lab.train_episode", True),
            (lab, "gen_two_view_batch", "lab.gen_two_view_batch", False),
            (lab, "encoder_forward", "lab.encoder_forward", False),
            (lab, "observe_state", "scheduler.observe_state", False),
            (lab, "policy_act", "scheduler.policy_act", False),
            (lab, "map_action", "scheduler.map_action", False),
            (lab, "info_nce", "losses.info_nce", False),
            (lab, "barlow_twins", "losses.barlow_twins", False),
            (lab, "reward", "scheduler.reward", False),
            (lab, "Transition", "scheduler.transition", False),
            (lab, "ppo_update", "scheduler.ppo_update", True),
            (cli, "write_training_log", "lab.write_training_log", False),
            (cli, "save_encoder_weights", "lab.save_encoder_weights", False),
        ]
        main = {name: t.wrap(f"cli.{name}", cli.main) for name, _ in self.commands}
        with t.patched(targets):
            result = self._round_trip(lambda name, argv: main[name](argv))
        t.calls["dynamics.csv_bytes"].append(((), os.path.getsize(self.paths_csv)))
        return result


WORKLOADS = {"train": Train, "basin_sweep": BasinSweep, "cli_files": CliFiles}


@contextlib.contextmanager
def workdir(root: str):
    """A scratch directory inside the benchmark's own output directory."""
    os.makedirs(root, exist_ok=True)
    path = tempfile.mkdtemp(prefix="run-", dir=root)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def tail(values):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the median when there are fewer than 20 samples,
    and (0, 0) when there are none."""
    v = sorted(values)
    n = len(v)
    if n == 0:
        return 0.0, 0
    if n < 20:
        return v[(n - 1) // 2], 50
    return v[n - 11], math.floor(100 * (n - 10) / n)


def layer_metrics(t, ops: int) -> dict:
    """Every per-layer metric from the spans and kept calls of `ops`
    traced operations.  A layer the workload never calls reads 0."""
    c = t.calls
    us = t.mean_us

    kernel_steps, halved = [], 0
    for args, (ts, _xs, _ys, terminal) in c["kernels.rk4_path"]:
        dt = args[6]
        steps = np.diff(ts)
        if terminal < 0 and len(steps):
            steps = steps[:-1]  # the horizon step is cut short, not halved
        kernel_steps.append(len(ts) - 1)
        # Halved steps are at most dt/2; accumulated times make an
        # ordinary step read a few ulps short of dt, so test against 0.75 dt.
        halved += int(np.count_nonzero(steps < 0.75 * dt))
    recorded = allocated = unconverged = 0
    for _args, traj in c["dynamics.simulate"]:
        base = traj.times.base
        recorded += len(traj.times)
        allocated += len(traj.times) if base is None else base.size
        unconverged += traj.converged_to is None
    active = [1.0 - stats["clip_fraction"] for _a, (_p, stats) in c["scheduler.ppo_update"]]
    logs = [log for _a, log in c["lab.train_episode"]]
    episode_steps = sum(len(log.records) for log in logs)
    csv_bytes = [size for _a, size in c["dynamics.csv_bytes"]]
    sim = t.durations.get("dynamics.simulate", [])
    rk4_total = sum(t.durations.get("kernels.rk4_path", []))

    def per_op(total):
        """Count per operation; every operation of a run does the same work."""
        return total // ops if ops else 0

    return {
        "lab.batch_us": us("lab.gen_two_view_batch"),
        "lab.encode_us": us("lab.encoder_forward"),
        "lab.loop_self_us": 1e6 * t.self_time.get("lab.train_episode", 0.0) / episode_steps
        if episode_steps else 0.0,
        "lab.write_log_ms": us("lab.write_training_log") / 1e3,
        "lab.save_weights_ms": us("lab.save_encoder_weights") / 1e3,
        "lab.final_loss": final_loss(logs[-1]) if logs else 0.0,
        "losses.info_nce_us": us("losses.info_nce"),
        "losses.barlow_twins_us": us("losses.barlow_twins"),
        "scheduler.observe_state_us": us("scheduler.observe_state"),
        "scheduler.policy_act_us": us("scheduler.policy_act"),
        "scheduler.map_action_us": us("scheduler.map_action"),
        "scheduler.reward_us": us("scheduler.reward"),
        "scheduler.transition_us": us("scheduler.transition"),
        "scheduler.ppo_update_ms": us("scheduler.ppo_update") / 1e3,
        "scheduler.ppo_updates": per_op(t.count("scheduler.ppo_update")),
        "scheduler.ppo_active_frac": sum(active) / len(active) if active else 0.0,
        "dynamics.simulate_us.p50": 1e6 * statistics.median(sim) if sim else 0.0,
        "dynamics.simulate_us.tail": 1e6 * tail(sim)[0],
        "dynamics.wrapper_us": 1e6 * t.self_time.get("dynamics.simulate", 0.0) / len(sim)
        if sim else 0.0,
        "dynamics.write_csv_ms": us("dynamics.write_trajectories_csv") / 1e3,
        "dynamics.csv_bytes": per_op(sum(csv_bytes)),
        "dynamics.buffer_used_frac": recorded / allocated if allocated else 0.0,
        "dynamics.paths_unconverged": per_op(unconverged),
        "kernels.rk4_us_per_step": 1e6 * rk4_total / sum(kernel_steps)
        if kernel_steps else 0.0,
        "kernels.rk4_steps": per_op(sum(kernel_steps)),
        "kernels.steps_per_path.p50": statistics.median(kernel_steps) if kernel_steps else 0,
        "kernels.steps_per_path.max": max(kernel_steps, default=0),
        "kernels.halved_steps": per_op(halved),
        "cli.metrics_ms": us("cli.metrics") / 1e3,
        "cli.saddle_ms": us("cli.saddle") / 1e3,
        "cli.equilibria_ms": us("cli.equilibria") / 1e3,
        "cli.simulate_ms": us("cli.simulate") / 1e3,
        "cli.train_ms": us("cli.train") / 1e3,
        "metrics.load_benchmark_ms": us("metrics.load_benchmark") / 1e3,
        "stability.enumerate_equilibria_us": us("stability.enumerate_equilibria"),
    }
