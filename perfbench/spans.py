"""Span recording for the benchmark's traced run, and the per-layer metrics.

For the traced run the benchmark replaces, at runtime, the names each
``sphere_zeros`` module imported from the layer below with wrappers that
record one span per call: name, start, end, parent span and op id.  No
source file changes, and leaving the ``Tracer`` context restores every
original.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from time import perf_counter_ns


class Recorder:
    """Spans in parallel lists, plus counters observed from call results."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.points: list[int] = []
        self.counters: dict[str, int] = {}
        self.current_op = -1
        self._stack: list[int] = []

    def open(self, name: str, points: int = 0) -> int:
        sid = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.points.append(points)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(perf_counter_ns())
        return sid

    def close(self) -> None:
        """End the innermost open span."""
        self.end[self._stack.pop()] = perf_counter_ns()

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def self_ns(self) -> list[int]:
        """Each span's duration minus the part its children cover.

        Spans nest strictly (one thread, a stack of open spans), so the
        children of a span are disjoint and their coverage is their sum.
        """
        cover = [0] * len(self.name)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                cover[parent] += self.end[sid] - self.start[sid]
        return [e - s - c for s, e, c in zip(self.start, self.end, cover)]

    def write_tsv(self, path, header: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {header}\n")
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\tpoints\n")
            t0 = self.start[0] if self.start else 0
            for sid, name in enumerate(self.name):
                fh.write(
                    f"{sid}\t{self.parent[sid]}\t{self.op[sid]}\t{name}\t"
                    f"{self.start[sid] - t0}\t{self.end[sid] - t0}\t{self.points[sid]}\n"
                )


def _npoints(args, kwargs) -> int:
    return len(args[1] if len(args) > 1 else kwargs["points"])


def _observe_solve(rec: Recorder, result) -> None:
    rec.count("zerofinder.zeros", result.count)
    rec.count("zerofinder.depth_used", result.depth_used)
    rec.count("zerofinder.escalated", int(result.escalations > 0))
    rec.count("zerofinder.degenerate", int(result.status.value == "Degenerate"))


def _observe_resamples(rec: Recorder, report) -> None:
    rec.count("integralgeom.resamples", report.degenerate_resamples)


# (module, imported name, span name, batch size from the points argument, observer)
PATCHES = (
    ("zerofinder", "eval_basis_many", "harmonics.values", True, None),
    ("zerofinder", "eval_basis_and_gradient_many", "harmonics.grad", True, None),
    ("zerofinder", "icosphere", "icosphere", False, None),
    ("embedding", "eval_basis_many", "harmonics.values", True, None),
    ("embedding", "eval_gradient_many", "harmonics.grad", True, None),
    ("embedding", "icosphere", "icosphere", False, None),
    ("embedding", "covering_degree", "embedding.covering_degree", False, None),
    # The identity checks of ``invariants`` call the kernels inside harmonics.
    ("harmonics", "eval_basis_many", "harmonics.values", True, None),
    ("harmonics", "eval_gradient_many", "harmonics.grad", True, None),
    ("integralgeom", "find_common_zeros_s2", "zerofinder.solve", False, _observe_solve),
    ("integralgeom", "restrict_to_great_circle", "zerofinder.circle", False, None),
    ("cli", "average_zero_count", "integralgeom.average", False, _observe_resamples),
    ("cli", "conjecture_mixed_average", "integralgeom.average", False, _observe_resamples),
    ("cli", "crofton_length", "integralgeom.crofton", False, _observe_resamples),
    ("cli", "image_volume", "embedding.image_volume", False, None),
)


def _wrap(rec: Recorder, span: str, fn, batched: bool, observe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.open(span, _npoints(args, kwargs) if batched else 0)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close()
        if observe is not None:
            observe(rec, result)
        return result

    return wrapper


class Tracer:
    """Context manager that installs the span wrappers and restores the originals."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Recorder:
        for module, attr, span, batched, observe in PATCHES:
            mod = importlib.import_module(f"sphere_zeros.{module}")
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, _wrap(self.rec, span, original, batched, observe))
        return self.rec

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()


# name -> (unit, better); the per-layer metrics of BENCHMARK.json, in order.
PER_LAYER = {}
for _layer in ("harmonics.values", "harmonics.grad"):
    PER_LAYER.update({
        f"{_layer}.calls": ("count", "lower"),
        f"{_layer}.points": ("count", "lower"),
        f"{_layer}.busy_s": ("s", "lower"),
        f"{_layer}.ns_per_point": ("ns", "lower"),
        f"{_layer}.points_per_call": ("count", "higher"),
    })
PER_LAYER.update({
    "harmonics.wall_share": ("ratio", "lower"),
    "icosphere.misses": ("count", "lower"),
    "icosphere.busy_s": ("s", "lower"),
    "zerofinder.solve.calls": ("count", "lower"),
    "zerofinder.solve.busy_s": ("s", "lower"),
    "zerofinder.solve.self_s": ("s", "lower"),
    "zerofinder.solve.ms_p50": ("ms", "lower"),
    "zerofinder.solve.ms_p90": ("ms", "lower"),
    "zerofinder.zeros": ("count", "higher"),
    "zerofinder.grad_points_per_zero": ("points/zero", "lower"),
    "zerofinder.depth_used_mean": ("level", "lower"),
    "zerofinder.escalated_frac": ("ratio", "lower"),
    "zerofinder.degenerate_frac": ("ratio", "lower"),
    "zerofinder.circle.calls": ("count", "lower"),
    "zerofinder.circle.busy_s": ("s", "lower"),
    "zerofinder.circle.self_s": ("s", "lower"),
    "zerofinder.circle.values_calls_per_circle": ("count", "lower"),
    "integralgeom.average.calls": ("count", "lower"),
    "integralgeom.average.busy_s": ("s", "lower"),
    "integralgeom.average.self_s": ("s", "lower"),
    "integralgeom.crofton.calls": ("count", "lower"),
    "integralgeom.crofton.busy_s": ("s", "lower"),
    "integralgeom.crofton.self_s": ("s", "lower"),
    "integralgeom.resamples": ("count", "lower"),
    "embedding.image_volume.calls": ("count", "lower"),
    "embedding.image_volume.busy_s": ("s", "lower"),
    "embedding.image_volume.self_s": ("s", "lower"),
    "embedding.covering_degree.calls": ("count", "lower"),
    "embedding.covering_degree.busy_s": ("s", "lower"),
    "embedding.covering_degree.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.report_bytes": ("bytes", "lower"),
    "trace.ops": ("count", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
})

# Counts that repeat exactly across runs on one seed.
EXACT_COUNTS = tuple(
    name for name in PER_LAYER
    if name.endswith((".calls", ".points"))
    or name in ("zerofinder.zeros", "zerofinder.grad_points_per_zero",
                "zerofinder.escalated_frac", "icosphere.misses")
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile_ms(ns: list[int], q: int) -> float:
    """The q-th percentile in ms (inclusive method); 0 without samples."""
    if not ns:
        return 0.0
    if len(ns) == 1:
        return ns[0] / 1e6
    return statistics.quantiles(ns, n=100, method="inclusive")[q - 1] / 1e6


def layer_metrics(
    rec: Recorder,
    icosphere_misses: int,
    traced_s: float,
    untraced_s: float,
    report_bytes: int,
    ops: int,
) -> dict[str, float]:
    """Every PER_LAYER metric of one traced pass."""
    self_ns = rec.self_ns()
    stats: dict[str, dict[str, float]] = {}
    durations: dict[str, list[int]] = {}
    child_calls: dict[tuple[str, str], int] = {}
    child_points: dict[tuple[str, str], int] = {}
    for sid, name in enumerate(rec.name):
        dur = rec.end[sid] - rec.start[sid]
        st = stats.setdefault(name, {"calls": 0, "points": 0, "busy_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["points"] += rec.points[sid]
        st["busy_s"] += dur / 1e9
        st["self_s"] += self_ns[sid] / 1e9
        durations.setdefault(name, []).append(dur)
        if rec.parent[sid] >= 0:
            key = (rec.name[rec.parent[sid]], name)
            child_calls[key] = child_calls.get(key, 0) + 1
            child_points[key] = child_points.get(key, 0) + rec.points[sid]

    def stat(name: str, field: str) -> float:
        return stats.get(name, {}).get(field, 0)

    out: dict[str, float] = {}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "points", "busy_s", "self_s"):
            out[name] = stat(layer, field)
    for layer in ("harmonics.values", "harmonics.grad"):
        out[f"{layer}.ns_per_point"] = _ratio(1e9 * stat(layer, "busy_s"), stat(layer, "points"))
        out[f"{layer}.points_per_call"] = _ratio(stat(layer, "points"), stat(layer, "calls"))
    out["harmonics.wall_share"] = _ratio(
        stat("harmonics.values", "busy_s") + stat("harmonics.grad", "busy_s"), stat("cli", "busy_s")
    )
    out["icosphere.misses"] = icosphere_misses
    solves = stat("zerofinder.solve", "calls")
    zeros = rec.counters.get("zerofinder.zeros", 0)
    out["zerofinder.solve.ms_p50"] = _quantile_ms(durations.get("zerofinder.solve", []), 50)
    out["zerofinder.solve.ms_p90"] = _quantile_ms(durations.get("zerofinder.solve", []), 90)
    out["zerofinder.zeros"] = zeros
    out["zerofinder.grad_points_per_zero"] = _ratio(
        child_points.get(("zerofinder.solve", "harmonics.grad"), 0), zeros
    )
    for counter in ("depth_used", "escalated", "degenerate"):
        field = "depth_used_mean" if counter == "depth_used" else f"{counter}_frac"
        out[f"zerofinder.{field}"] = _ratio(rec.counters.get(f"zerofinder.{counter}", 0), solves)
    out["zerofinder.circle.values_calls_per_circle"] = _ratio(
        child_calls.get(("zerofinder.circle", "harmonics.values"), 0),
        stat("zerofinder.circle", "calls"),
    )
    out["integralgeom.resamples"] = rec.counters.get("integralgeom.resamples", 0)
    out["cli.report_bytes"] = report_bytes
    out["trace.ops"] = ops
    out["trace.overhead_ratio"] = _ratio(traced_s, untraced_s)
    return {name: out[name] for name in PER_LAYER}
