#!/usr/bin/env python3
"""Run one workload of the evoloss benchmark and print its metrics.

Run from the root of a checkout of the repository:

    python3 evobench/run.py --workload train --seed 1 --seconds 30 --trace 0

Workloads: train, basin_sweep, cli_files (see evobench/README.md).
With --trace 0 the run times untraced operations and reports the
end-to-end metrics; with --trace 1 it alternates untraced operations with
traced replicas, checks that both give identical results, and reports
the per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Exit code 0 means a result was printed (check
"correct"); 1 means no operation completed; 2 means the checkout or the
arguments are unusable.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh processes started to time set-up and import; the median is reported.
PROBES = 5
#: Nominal duration of calibrate().  Reported times are in reference
#: seconds: wall time x REF_CAL_S / the calibration time measured around it.
REF_CAL_S = 0.04
#: Least time between two calibrations.
CAL_EVERY_S = 1.0

UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "import_s": "s",
    "trace.overhead_frac": "frac",
    "lab.final_loss": "loss",
    "dynamics.csv_bytes": "bytes",
    "dynamics.buffer_used_frac": "frac",
    "kernels.rk4_us_per_step": "us",
    "scheduler.ppo_active_frac": "frac",
}
COUNT_METRICS = (
    "scheduler.ppo_updates",
    "dynamics.paths_unconverged",
    "kernels.rk4_steps",
    "kernels.steps_per_path.p50",
    "kernels.steps_per_path.max",
    "kernels.halved_steps",
)


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name in COUNT_METRICS:
        return "count"
    # "lab.batch_us", "dynamics.simulate_us.p50": the suffix names the unit
    return name.split(".")[1].rsplit("_", 1)[1]


def cap_threads() -> None:
    """Cap BLAS/OpenMP threads at the core count before numpy loads."""
    n = os.cpu_count() or 1
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= n):
            os.environ[var] = str(n)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git; a
    checkout exported without .git reports "unknown"."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> dict:
    import numpy as np

    from evoloss import _kernels

    return {
        "jit_enabled": _kernels.JIT_ENABLED,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(root),
    }


def calibrate() -> float:
    """Wall time of a fixed loop of small numpy calls and of scalar float
    arithmetic in the interpreter, the two kinds of work the workloads
    spend their time on.

    The host is shared and its speed drifts by tens of percent over
    minutes.  Timing this loop around the measured operations and
    dividing it out removes most of that drift from the reported times;
    the raw wall-clock figures are printed as well.
    """
    import numpy as np

    a = np.linspace(-1.0, 1.0, 512).reshape(32, 16)
    b = np.linspace(-1.0, 1.0, 128).reshape(16, 8)
    acc = 0.0
    x, y = 0.3, 0.6
    t0 = time.perf_counter()
    for _ in range(2000):
        acc += float(np.tanh(a @ b).sum())
    for _ in range(20000):
        fx = x * (1.0 - x) * (0.5 - y)
        fy = y * (1.0 - y) * (0.5 - x)
        x = min(max(x + 0.01 * fx, 0.0), 1.0)
        y = min(max(y + 0.01 * fy, 0.0), 1.0)
    return time.perf_counter() - t0


class Clock:
    """Times calls in wall seconds and converts them to reference seconds.

    A calibration runs before a call whenever CAL_EVERY_S has passed since
    the previous one, and once more from finish().  Each call is scaled by
    the mean of the calibrations just before and just after it.
    """

    def __init__(self):
        self.cals = []  # (start time, duration)
        self.calibrate()

    def calibrate(self) -> None:
        self.cals.append((time.perf_counter(), calibrate()))

    def time(self, fn):
        """Return (result, (start, wall seconds))."""
        if time.perf_counter() - self.cals[-1][0] >= CAL_EVERY_S:
            self.calibrate()
        t0 = time.perf_counter()
        result = fn()
        return result, (t0, time.perf_counter() - t0)

    def finish(self) -> None:
        self.calibrate()

    def scaled(self, record) -> float:
        """Reference seconds of a (start, wall) record; call after finish()."""
        t0, wall = record
        before = [d for t, d in self.cals if t <= t0][-1]
        after = next(d for t, d in self.cals if t >= t0 + wall)
        return wall * REF_CAL_S / ((before + after) / 2)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe(argv: list) -> None:
    """Run one fresh interpreter on argv to completion."""
    done = subprocess.run([sys.executable, *argv], stdout=subprocess.DEVNULL, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"probe {argv} exited with {done.returncode}")


def probe_records(clock: Clock, argv: list) -> list:
    """(start, wall) records of PROBES fresh interpreters running argv,
    each timed from process start to exit."""
    return [clock.time(lambda: probe(argv))[1] for _ in range(PROBES)]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "basin_sweep", "cli_files"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up and exit (timed by the parent run)")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def run(args, root: str) -> tuple:
    """Set up, measure for args.seconds, and return (result, lines)."""
    import workloads
    from tracer import Tracer

    clock = Clock()
    argv = [os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    setup_records = probe_records(clock, argv)
    import_argv = ["-c", f"import sys; sys.path.insert(0, {os.path.join(root, 'src')!r}); "
                         "import evoloss"]
    import_records = probe_records(clock, import_argv) if args.trace else []

    with workloads.workdir(OUT_DIR) as scratch:
        w = workloads.WORKLOADS[args.workload](args.seed, scratch)
        tracer = Tracer() if args.trace else None
        untraced, traced, problems = [], [], []
        attempted = failed = 0
        last = first_rss = None
        start = time.perf_counter()
        deadline = start + args.seconds
        while True:
            attempted += 1
            last = None  # free the previous result before the next operation
            try:
                last, record = clock.time(w.op)
                if first_rss is None:
                    first_rss = peak_rss_mb()
                untraced.append(record)
                found = w.check(last)
                if tracer is not None:
                    attempted += 1
                    replica, record = clock.time(lambda: w.traced(tracer))
                    traced.append(record)
                    if not w.same(last, replica):
                        found.append("traced replica differs from the untraced result")
            except Exception as exc:  # a failed operation is counted, not fatal
                found = [f"{type(exc).__name__}: {exc}"]
            if found:
                failed += 1
                problems.extend(found)
            now = time.perf_counter()
            if now + (now - start) / (len(untraced) or 1) > deadline:
                break
        clock.finish()

        if not untraced:
            raise SystemExit(f"error: no operation completed: {problems[:3]}")
        walls = [wall for _, wall in untraced]
        untraced = [clock.scaled(r) for r in untraced]
        traced = [clock.scaled(r) for r in traced]
        setup_s = statistics.median(clock.scaled(r) for r in setup_records)
        lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}: "
                 f"{len(untraced)} operations of {w.units_per_op} {w.unit}"]
        lines += [f"problem: {p}" for p in problems[:20]]
        if tracer is None:
            op_s = statistics.median(untraced)
            metrics = {
                "setup_s": setup_s,
                "peak_rss_mb": first_rss,
                "work_per_s": w.units_per_op / op_s,
            }
            extra = {
                "peak_rss_mb (whole run)": peak_rss_mb(),
                "work_per_s (wall clock)": w.units_per_op / statistics.median(walls),
                "calibration_ms (median)": 1e3 * statistics.median(d for _, d in clock.cals),
            }
            if args.workload == "train" and last is not None:
                extra["train.final_loss"] = workloads.final_loss(last)
            if args.workload == "cli_files":
                value, pct = workloads.tail(untraced)
                extra["cli.roundtrip_s.p50"] = op_s
                extra[f"cli.roundtrip_s.tail (p{pct} of {len(untraced)})"] = value
        else:
            metrics = workloads.layer_metrics(tracer, len(traced))
            metrics["import_s"] = statistics.median(clock.scaled(r) for r in import_records)
            metrics["trace.overhead_frac"] = (
                statistics.median(traced) / statistics.median(untraced) - 1.0
            )
            extra = {}
        extra["failed_frac"] = failed / attempted
        lines += [f"{k} = {v!r}" for k, v in {**metrics, **extra}.items()]
        result = {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        }
        return result, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "evoloss", "__init__.py")):
        print("error: run from the root of an evoloss checkout (src/evoloss is missing)",
              file=sys.stderr)
        return 2
    cap_threads()
    sys.path.insert(0, src)
    import evoloss

    if os.path.dirname(os.path.abspath(evoloss.__file__)) != os.path.join(src, "evoloss"):
        print(f"error: imported evoloss from {evoloss.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        import workloads

        with workloads.workdir(OUT_DIR) as scratch:
            workloads.WORKLOADS[args.workload](args.seed, scratch)
        return 0
    result, lines = run(args, root)
    print("env " + json.dumps(environment(root), sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
