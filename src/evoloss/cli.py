"""Command line interface.

Exit codes: 0 on success, 2 on input or validation problems, 3 on
degenerate game inputs (no usable interior fixed point).  On success,
each warning is printed as one "warning: ..." line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from collections import Counter
from dataclasses import MISSING, fields

import numpy as np

from .dynamics import (
    CORNERS,
    IntegratorConfig,
    phase_portrait,
    sample_starts,
    write_trajectories_csv,
)
from .errors import DegenerateGameError, EvolossError, OutOfSimplexError, as_int
from .game import PopulationState, saddle_point
from .kvfile import read_kv_file, read_text, write_csv
from .lab import LabConfig, save_encoder_weights, train_episode, write_training_log
from .metrics import load_benchmark, load_payoff_params, metric_rows
from .scheduler import SchedulerConfig, _cosine
from .stability import enumerate_equilibria, equilibria_table, write_equilibria_csv


@functools.cache  # built once per process; parse_args keeps no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evoloss",
        description="Trade-off game analysis and scheduled two-view training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metrics", help="derive gap metrics from a benchmark CSV")
    p.add_argument("--input", required=True, help="benchmark CSV (method,pretrain,eval,accuracy)")
    p.add_argument("--output", required=True, help="where to write the metric rows")

    p = sub.add_parser("saddle", help="print the interior fixed point of a game")
    p.add_argument("--params", required=True, help="key = value payoff params file")

    p = sub.add_parser("equilibria", help="classify all fixed points of a game")
    p.add_argument("--params", required=True)
    p.add_argument("--output", help="optional CSV destination")

    p = sub.add_parser("simulate", help="integrate trajectories of the replicator field")
    p.add_argument("--params", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--starts", type=int, help="number of random interior starts")
    group.add_argument("--starts-file", help="file with one 'x,y' start per line")
    p.add_argument("--out", required=True, help="trajectory CSV destination")
    p.add_argument("--dt", type=float, default=IntegratorConfig.dt)
    p.add_argument("--t-max", type=float, default=IntegratorConfig.t_max)
    p.add_argument("--stop-tol", type=float, default=IntegratorConfig.stop_tol)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="run a scheduled training episode")
    p.add_argument("--config", required=True, help="key = value training config file")
    p.add_argument("--out", required=True, help="per-step log CSV destination")
    p.add_argument("--weights-out", help="final encoder weights file (default: <out>.weights)")
    p.add_argument("--seed", type=int, help="override the config seed")
    return parser


def run_metrics(args) -> int:
    rows = metric_rows(load_benchmark(args.input))
    write_csv(args.output, ["metric", "method", "pretrain", "eval", "value"], rows)
    print(f"wrote {len(rows)} metric rows to {args.output}")
    return 0


def run_saddle(args) -> int:
    params = load_payoff_params(args.params)
    point = saddle_point(params)
    print(f"x_star = {point.x!r}")
    print(f"y_star = {point.y!r}")
    return 0


def run_equilibria(args) -> int:
    params = load_payoff_params(args.params)
    equilibria = enumerate_equilibria(params)
    print(equilibria_table(equilibria))
    if args.output:
        write_equilibria_csv(equilibria, args.output)
        print(f"wrote {len(equilibria)} equilibria to {args.output}")
    return 0


def _read_starts_file(path) -> list[PopulationState]:
    starts = []
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise EvolossError(f"{path} line {lineno}: expected 'x,y', got {raw!r}")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            raise EvolossError(f"{path} line {lineno}: non-numeric start") from None
        starts.append(PopulationState(x, y))
    if not starts:
        raise EvolossError(f"{path}: no start states found")
    return starts


def run_simulate(args) -> int:
    params = load_payoff_params(args.params)
    cfg = IntegratorConfig(dt=args.dt, t_max=args.t_max, stop_tol=args.stop_tol)
    seed = as_int("seed", args.seed, 0)
    if args.starts_file:
        starts = _read_starts_file(args.starts_file)
    else:
        starts = sample_starts(as_int("starts", args.starts, 1), np.random.default_rng(seed))
    trajectories = phase_portrait(params, starts, cfg)
    write_trajectories_csv(trajectories, args.out)
    counts = Counter(traj.converged_to for traj in trajectories)
    for corner in CORNERS:
        if counts[corner]:
            print(f"basin ({corner.x:g}, {corner.y:g}): {counts[corner]}")
    print(f"unconverged: {counts[None]}")
    budget = sum(traj.reason == "budget" for traj in trajectories)
    if budget:
        print(f"stopped at step budget: {budget}")
    print(f"wrote {len(trajectories)} trajectories to {args.out}")
    return 0


#: The keys a train config may set: one per LabConfig and SchedulerConfig
#: field, except that the scheduler's target is the pair target_x, target_y.
TRAIN_CONFIG_KEYS = frozenset({f.name for f in fields(LabConfig) + fields(SchedulerConfig)}
                              - {"target"} | {"target_x", "target_y"})


def _parse_train_config(path) -> tuple[dict, dict]:
    """The LabConfig and SchedulerConfig arguments a train config sets,
    its keys those of TRAIN_CONFIG_KEYS."""
    data = read_kv_file(path)
    lab_fields, sched_fields = fields(LabConfig), fields(SchedulerConfig)
    unknown = set(data) - TRAIN_CONFIG_KEYS
    if unknown:
        raise EvolossError(f"unknown config keys: {sorted(unknown)}")
    for f in lab_fields + sched_fields:
        if f.default is MISSING and f.name not in data:
            raise EvolossError(f"config must set {f.name}")
    if ("target_x" in data) != ("target_y" in data):
        raise EvolossError("config must set both target_x and target_y or neither")
    if "target_x" in data:
        data["target"] = (data.pop("target_x"), data.pop("target_y"))
    return (
        {f.name: data[f.name] for f in lab_fields if f.name in data},
        {f.name: data[f.name] for f in sched_fields if f.name in data},
    )


def run_train(args) -> int:
    lab_kwargs, sched_kwargs = _parse_train_config(args.config)
    if args.seed is not None:
        lab_kwargs["seed"] = args.seed
    cfg = LabConfig(**lab_kwargs)
    sched_cfg = SchedulerConfig(**sched_kwargs)
    log = train_episode(cfg, sched_cfg)
    write_training_log(log, args.out)
    weights_path = args.weights_out or f"{args.out}.weights"
    save_encoder_weights(log.final_weights, weights_path)
    window = min(1000, cfg.steps)
    mean_alpha = float(log.alphas[-window:].mean())
    mean_beta = float(log.betas[-window:].mean())
    cosine = _cosine(np.array([mean_alpha, mean_beta]), sched_cfg)
    print(f"steps = {cfg.steps}")
    print(f"trailing_mean_alpha = {mean_alpha!r}")
    print(f"trailing_mean_beta = {mean_beta!r}")
    print(f"cosine_to_target = {cosine!r}")
    print(f"wrote log to {args.out} and weights to {weights_path}")
    return 0


_HANDLERS = {
    "metrics": run_metrics,
    "saddle": run_saddle,
    "equilibria": run_equilibria,
    "simulate": run_simulate,
    "train": run_train,
}


#: How the ValueError that numpy raises for an array too large to
#: allocate, before it allocates anything, begins: a dimension beyond
#: its index type, or a byte size beyond its maximum.
_TOO_BIG = ("Maximum allowed dimension exceeded", "array is too big;")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            # every warning once per event, not once per message and line
            warnings.simplefilter("always")
            code = _HANDLERS[args.command](args)
        sys.stderr.write("".join(f"warning: {w.message}\n" for w in caught))
        return code
    except (DegenerateGameError, OutOfSimplexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (EvolossError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, ValueError) as exc:
        if isinstance(exc, ValueError) and not str(exc).startswith(_TOO_BIG):
            raise
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
