#!/usr/bin/env python3
"""Seeded closed-loop benchmark of the sphere-zeros command line.

    python3 perfbench/run.py --workload mc_low --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the benchmark imports the package from its
``src/`` directory.  One client sends one op at a time: an in-process
``sphere_zeros.cli.main(argv)`` call whose argv come from the workload seed.
Every report is parsed and checked.  With ``--trace 0`` the run measures the
end-to-end metrics for ``--seconds`` seconds (and at least ``MIN_OPS`` ops);
with ``--trace 1`` it runs a fixed list of ops twice, untraced and traced,
and reports the per-layer metrics.  Spans of the traced runs are written to
``perfbench/out/``.  Times are calibrated against a fixed kernel timed next
to each op (see ``calibration_ns``).  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_OPS = 100            # so that ten ops lie beyond the p90
MAX_LOOP_S = 120.0       # hard stop, whatever MIN_OPS asks for
SETUP_REPEATS = 3
CALIBRATION_NS = 1_000_000  # calibration kernel time that defines the reference speed (README.md)
WORKLOAD_NAMES = ("mc_low", "mc_high", "crofton", "geometry")

# name -> (unit, better); the end-to-end metrics of BENCHMARK.json, in order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "trials_per_s": ("1/s", "higher"),
    "op_ms_p50": ("ms", "lower"),
    "op_ms_p90": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def call_cli(main, argv) -> tuple[int, str]:
    """One op: the CLI's exit code and its report text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:     # a crash is a failed op, not a failed benchmark
            code = -1
    return code, out.getvalue()


def lru_caches():
    """(name, function) for every functools cache in the package's modules."""
    found = []
    for modname, mod in sorted(sys.modules.items()):
        if not modname.startswith("sphere_zeros."):
            continue
        for attr, obj in vars(mod).items():
            if callable(getattr(obj, "cache_clear", None)) and getattr(obj, "__module__", "") == modname:
                found.append((f"{modname.split('.', 1)[1]}.{attr}", obj))
    return found


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "lru_caches": {
            name: {"maxsize": fn.cache_info().maxsize, "currsize": fn.cache_info().currsize}
            for name, fn in lru_caches()
        },
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def calibration_ns() -> int:
    """Time a fixed kernel that does not touch the program.

    Other tenants of a shared machine slow every process on it for seconds
    at a time, interpreter-bound code more than array-bound code.  The
    kernel mixes both: a loop of tiny ufunc calls, and a Legendre
    recurrence on 8192 points.  Its time, measured next to each op, tracks
    the machine's current speed.
    """
    import numpy as np

    t0 = time.perf_counter_ns()
    x = np.linspace(0.0, 1.0, 32)
    for _ in range(100):
        x = np.sqrt(x * x + 1e-3) * 0.999
    z = np.linspace(-1.0, 1.0, 8192)
    p0, p1 = np.ones_like(z), z.copy()
    for n in range(1, 12):
        p0, p1 = p1, ((2 * n + 1) * z * p1 - n * p0) / (n + 1)
    return time.perf_counter_ns() - t0


def calibrated(latency_ns: list[int], calib_ns: list[int]) -> list[float]:
    """Latencies at the nominal machine speed: each scaled by the median of the 7 nearest kernel times."""
    out = []
    for i, ns in enumerate(latency_ns):
        near = sorted(calib_ns[max(0, i - 3): i + 4])
        out.append(ns * CALIBRATION_NS / near[len(near) // 2])
    return out


class Runner:
    """Runs ops through the CLI, checks them, and keeps their latencies and calibration times."""

    def __init__(self, main, checker):
        self.main = main
        self.checker = checker
        self.latency_ns: list[int] = []
        self.calib_ns: list[int] = []
        self.slots: list[int] = []
        self.report_bytes = 0
        self.failures: dict[int, str] = {}

    def run(self, op, before=None, after=None) -> None:
        index = len(self.latency_ns)
        self.calib_ns.append(calibration_ns())
        if before is not None:
            before(index)
        t0 = time.perf_counter_ns()
        code, text = call_cli(self.main, op.argv)
        self.latency_ns.append(time.perf_counter_ns() - t0)
        if after is not None:
            after()
        self.slots.append(op.index)
        self.report_bytes += len(text.encode())
        reason = self.checker.check(index, op, code, text)
        if reason is not None:
            self.failures[index] = reason

    def finish(self) -> dict[int, str]:
        """Failed ops by index, the pooled Monte Carlo checks included."""
        self.failures.update(self.checker.pooled_failures())
        return self.failures


def setup(main, wl, workload, seed: int) -> tuple[list[float], int]:
    """Warm-up from cold caches, SETUP_REPEATS times.

    Returns the calibrated seconds of each repeat and the number of failed
    warm-up ops.
    """
    times = []
    failed = 0
    for _ in range(SETUP_REPEATS):
        for _, fn in lru_caches():
            fn.cache_clear()
        runner = Runner(main, wl.Checker())
        t0 = time.perf_counter_ns()
        for op in wl.warmup_ops(workload, seed):
            runner.run(op)
        elapsed = time.perf_counter_ns() - t0 - sum(runner.calib_ns)
        runner.calib_ns.append(calibration_ns())
        times.append(elapsed * CALIBRATION_NS / statistics.median(runner.calib_ns) / 1e9)
        failed = max(failed, len(runner.failures))
    return times, failed


def op_metrics(runner: Runner, lat: list[float]) -> dict[str, float]:
    """Throughput and latency percentiles of one untraced run.

    Throughput is taken over one cycle of the workload's slots, from each
    slot's median latency, so that a burst of load moves it little.
    """
    by_slot: dict[int, list[float]] = {}
    for slot, ns in zip(runner.slots, lat):
        by_slot.setdefault(slot, []).append(ns)
    cycle_s = sum(statistics.median(v) for v in by_slot.values()) / 1e9
    cycle_trials = sum(runner.checker.trials_by_slot.get(s, 0) / len(v) for s, v in by_slot.items())
    return {
        "ops_per_s": len(by_slot) / cycle_s,
        "trials_per_s": cycle_trials / cycle_s,
        "op_ms_p50": statistics.median(lat) / 1e6,
        "op_ms_p90": statistics.quantiles(lat, n=10, method="inclusive")[8] / 1e6,
        "slot_ms_p50": {s: statistics.median(v) / 1e6 for s, v in sorted(by_slot.items())},
    }


def traced_run(main, wl, spans, stream, n_ops: int):
    """Run a fixed op list twice, untraced and traced, alternating which goes first per op.

    Alternating splits cold-cache costs evenly and pairs the two runs of an
    op in time, so their ratio is the tracing overhead.  Returns the runners
    and the per-layer metrics.
    """
    ops = [next(stream) for _ in range(n_ops)]
    rec = spans.Recorder()
    plain = Runner(main, wl.Checker())
    traced = Runner(main, wl.Checker())

    def before(index: int) -> None:
        rec.current_op = index
        rec.open("cli")

    def run_traced(op) -> None:
        with spans.Tracer(rec):
            traced.run(op, before=before, after=rec.close)

    for i, op in enumerate(ops):
        if i % 2:
            run_traced(op)
            plain.run(op)
        else:
            plain.run(op)
            run_traced(op)
    misses = dict(lru_caches())["icosphere.icosphere"].cache_info().misses
    metrics = spans.layer_metrics(
        rec, misses, sum(traced.latency_ns) / 1e9, sum(plain.latency_ns) / 1e9,
        traced.report_bytes, n_ops,
    )
    return [plain, traced], rec, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sphere_zeros" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:        # one process, one BLAS thread: steadier on a shared box
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter_ns()
    import sphere_zeros.cli as cli
    import_ns = time.perf_counter_ns() - t0
    if Path(cli.__file__).resolve().parent != SRC / "sphere_zeros":
        print(f"perfbench: imported {cli.__file__}, not the checkout", file=sys.stderr)
        return 2
    import numpy

    import spans
    import workloads as wl

    import_s = import_ns * CALIBRATION_NS / statistics.median(calibration_ns() for _ in range(5)) / 1e9
    workload = wl.WORKLOADS[args.workload]
    setup_times, warm_failed = setup(cli.main, wl, workload, args.seed)
    setup_s = import_s + statistics.median(setup_times)
    stream = wl.op_stream(workload, args.seed)

    if not args.trace:
        runner = Runner(cli.main, wl.Checker())
        runners = [runner]
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if (elapsed >= args.seconds and len(runner.latency_ns) >= MIN_OPS) or elapsed >= MAX_LOOP_S:
                break
            runner.run(next(stream))
        metrics = op_metrics(runner, calibrated(runner.latency_ns, runner.calib_ns))
        raw = op_metrics(runner, runner.latency_ns)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
    else:
        # A fixed op count, so that every count repeats exactly on one seed.
        n_ops = max(4, int(args.seconds / (2.0 * workload.nominal_op_s)))
        runners, rec, metrics = traced_run(cli.main, wl, spans, stream, n_ops)
        raw = {}
        units = spans.PER_LAYER

    attempted = sum(len(r.latency_ns) for r in runners)
    reasons = [reason for r in runners for reason in r.finish().values()]
    env = environment(args, numpy.__version__)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        rec.write_tsv(OUT / f"spans-{args.workload}-seed{args.seed}.tsv", json.dumps(env))
    print("env " + json.dumps(env))
    print("summary " + json.dumps({
        "ops": attempted,
        "failed_frac": len(reasons) / attempted,
        "warmup_failed": warm_failed,
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "slot_ms_p50": metrics.get("slot_ms_p50", {}),
        "raw": raw,
        "calibration_us_p50": statistics.median(c for r in runners for c in r.calib_ns) / 1e3,
        "failures": sorted(set(reasons))[:5],
    }))
    print(json.dumps({
        "correct": not reasons and not warm_failed,
        "attempted": attempted,
        "failed": len(reasons),
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
