"""Workloads of the sphere-zeros benchmark: seeded CLI argv streams and report checks.

A workload is a fixed list of slots.  A slot fixes everything that sets the
cost of an op (subcommand, sphere, degrees, trials, quadrature depth); the
workload seed draws only what does not (the per-op ``--seed``, the zonal
tilt).  The op stream walks the slots in cycles, shuffled per cycle, so every
run sees the same op mix and run-to-run spread comes from the program, not
from a different mix.  Where slot costs form separate clusters (mc_high,
geometry), the slot count is 7: then the p50 falls in the middle of the
fourth-cheapest slot and the p90 inside the dearest one, never on the edge
between two clusters, where it would jump from run to run.

Checks that hold per report are applied per op.  The Monte Carlo checks (the
average against m(m+1), zonal Crofton lengths against their exact value) are
applied to the trials of all ops of one run pooled: an op runs only a few
trials, and a four-standard-error test on one to four trials fails by chance
far too often (for one trial the standard error is 0).  For the same reason
a pool of fewer than POOLED_MIN_TRIALS trials (warm-up, short traced runs)
is not tested.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np

EVEN_MC_COMMANDS = ("average", "conjecture")
POOLED_SIGMAS = 4.0
POOLED_MIN_TRIALS = 30        # below this the t tails make a 4-sigma test fire by chance
TOL_IDENTITY = {"orthonormality": 1e-8, "sum_of_squares": 1e-8, "gradient_sum": 1e-6}
TOL_IMAGE_VOLUME = 5e-3
QUADRATURE_DEPTH = 5          # 20480 quadrature nodes: one large batch per S2 embedding op


@dataclass(frozen=True)
class Slot:
    command: str
    degrees: tuple[int, ...]
    trials: int = 0               # 0: the subcommand takes no --trials
    sphere: int = 2
    function: str = ""            # crofton-length: "zonal" or "random"
    points: int = 0               # invariants: --points


@dataclass(frozen=True)
class Op:
    slot: Slot
    index: int                    # position of the slot in its workload
    argv: tuple[str, ...]
    replay: bool = False          # repeats the first op of the stream


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple[Slot, ...]
    nominal_op_s: float           # seconds per op at the baseline; sizes the traced run


def _crofton_slots() -> tuple[Slot, ...]:
    # Per-circle cost grows about as m^2, so trials shrink with the degree to
    # keep every op near 0.1 s.
    return tuple(
        Slot("crofton-length", (m,), trials=max(2, 300 // (m * m)), function=f)
        for m in (3, 5, 7, 9, 11, 13, 16)
        for f in ("zonal", "random")
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc_low",
            (
                Slot("average", (1,), trials=4),
                Slot("average", (2,), trials=4),
                Slot("average", (3,), trials=3),
                Slot("average", (4,), trials=2),
                Slot("average", (5,), trials=1),
                Slot("conjecture", (2, 2), trials=3),
                Slot("conjecture", (1, 2), trials=4),
                Slot("conjecture", (2, 3), trials=3),
                Slot("conjecture", (1, 4), trials=3),
                Slot("conjecture", (3, 5), trials=1),
            ),
            nominal_op_s=0.045,
        ),
        Workload(
            "mc_high",
            (
                Slot("average", (6,), trials=1),
                Slot("average", (7,), trials=1),
                Slot("average", (8,), trials=1),
                Slot("average", (8,), trials=1),
                Slot("zonal", (6,)),
                Slot("zonal", (7,)),
                Slot("zonal", (8,)),
            ),
            nominal_op_s=0.21,
        ),
        Workload("crofton", _crofton_slots(), nominal_op_s=0.12),
        Workload(
            "geometry",
            (
                Slot("invariants", (50,), sphere=2, points=1000),
                Slot("invariants", (50,), sphere=1, points=2000),
                Slot("embedding", (4,), sphere=2),
                Slot("embedding", (12,), sphere=2),
                Slot("embedding", (24,), sphere=2),
                Slot("embedding", (3,), sphere=1),
                Slot("embedding", (8,), sphere=1),
            ),
            nominal_op_s=0.135,
        ),
    )
}


def legendre_nodes(m: int) -> np.ndarray:
    """Roots of the Legendre polynomial P_m, from Gauss-Legendre quadrature."""
    return np.polynomial.legendre.leggauss(m)[0]


def zonal_length(m: int) -> float:
    """Exact length of the zero set of the degree-m zonal harmonic on the unit S2."""
    return float(np.sum(2.0 * math.pi * np.sqrt(1.0 - legendre_nodes(m) ** 2)))


def zonal_tilt_threshold(m: int) -> float:
    """A quarter of the smallest gap between zonal nodal colatitudes, poles included."""
    colat = np.sort(np.arccos(legendre_nodes(m)))
    return float(np.diff(np.concatenate([[0.0], colat, [math.pi]])).min() / 4.0)


def _argv(slot: Slot, rng: random.Random) -> tuple[str, ...]:
    seed = str(rng.randrange(2**31))
    degree = str(slot.degrees[0])
    if slot.command == "average":
        return ("average", "--sphere", "2", "--degree", degree,
                "--trials", str(slot.trials), "--seed", seed)
    if slot.command == "conjecture":
        return ("conjecture", "--degrees", *map(str, slot.degrees),
                "--trials", str(slot.trials), "--seed", seed)
    if slot.command == "zonal":
        alpha = zonal_tilt_threshold(slot.degrees[0]) * rng.uniform(0.35, 0.65)
        return ("zonal", "--degree", degree, "--alpha", repr(alpha))
    if slot.command == "crofton-length":
        return ("crofton-length", "--degree", degree, "--function", slot.function,
                "--trials", str(slot.trials), "--seed", seed)
    if slot.command == "invariants":
        return ("invariants", "--sphere", str(slot.sphere), "--degree", degree,
                "--points", str(slot.points), "--seed", seed)
    if slot.command == "embedding":
        return ("embedding", "--sphere", str(slot.sphere), "--degree", degree,
                "--quadrature-depth", str(QUADRATURE_DEPTH), "--seed", seed)
    raise ValueError(f"unknown command {slot.command}")


def op_stream(workload: Workload, seed: int):
    """Endless seeded ops; the second op repeats the first for the byte-identity check."""
    rng = random.Random(seed)
    first = True
    while True:
        cycle = list(enumerate(workload.slots))
        rng.shuffle(cycle)
        for index, slot in cycle:
            op = Op(slot, index, _argv(slot, rng))
            yield op
            if first:
                first = False
                yield Op(slot, index, op.argv, replay=True)


def warmup_ops(workload: Workload, seed: int) -> list[Op]:
    """One op per distinct slot, with a single trial where the command takes trials."""
    rng = random.Random(seed ^ 0x5EED)
    ops = []
    for slot in dict.fromkeys(workload.slots):
        index = workload.slots.index(slot)
        warm = Slot(slot.command, slot.degrees, min(slot.trials, 1), slot.sphere,
                    slot.function, slot.points)
        ops.append(Op(warm, index, _argv(warm, rng)))
    return ops


def solves(op: Op, report: dict) -> int:
    """Monte Carlo trials the op ran: S2 solves, circles, or 1 for a one-shot op."""
    if op.slot.command in ("zonal", "invariants", "embedding"):
        return 1
    return int(report["estimate"]["trials"]) + int(report["diagnostics"]["degenerate_resamples"])


class _Pool:
    """Sum, sum of squares and size of per-trial deviations from a reference."""

    def __init__(self):
        self.n = 0
        self.s1 = 0.0
        self.s2 = 0.0
        self.ops: list[int] = []

    def add(self, index: int, n: int, s1: float, s2: float) -> None:
        self.n += n
        self.s1 += s1
        self.s2 += s2
        self.ops.append(index)

    def failure(self, what: str) -> str | None:
        if self.n < POOLED_MIN_TRIALS:
            return None
        mean = self.s1 / self.n
        var = max(self.s2 - self.n * mean * mean, 0.0) / (self.n - 1)
        stderr = math.sqrt(var / self.n)
        if abs(mean) <= POOLED_SIGMAS * stderr + 1e-9:
            return None
        return f"{what}: pooled deviation {mean:.4g} over {self.n} trials, stderr {stderr:.3g}"


class Checker:
    """Checks each report, then the pooled Monte Carlo means of the run."""

    def __init__(self):
        self.first: tuple[int, str] | None = None
        self.trials_by_slot: dict[int, int] = {}
        self.seen: set[tuple[str, ...]] = set()
        self.average = _Pool()
        self.crofton = _Pool()

    def check(self, index: int, op: Op, code: int, text: str) -> str | None:
        """Failure reason for one op, or None; also feeds the pooled checks."""
        if self.first is None:
            self.first = (code, text)
        elif op.replay and (code, text) != self.first:
            return "repeated op gave a different report"
        if code != 0:
            return f"exit code {code}"
        try:
            report = json.loads(text)
            reason = self._check_report(op, report)
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed report: {exc!r}"
        if reason is None:
            self.trials_by_slot[op.index] = self.trials_by_slot.get(op.index, 0) + solves(op, report)
            if op.argv not in self.seen:
                self.seen.add(op.argv)
                self._pool(index, op, report)
        return reason

    def pooled_failures(self) -> dict[int, str]:
        """Ops whose pooled Monte Carlo check failed, with the reason."""
        failed = {}
        for pool, what in ((self.average, "average vs m(m+1)"),
                           (self.crofton, "zonal Crofton length")):
            reason = pool.failure(what)
            if reason is not None:
                failed.update(dict.fromkeys(pool.ops, reason))
        return failed

    def _check_report(self, op: Op, report: dict) -> str | None:
        slot = op.slot
        m = slot.degrees[0]
        if slot.command in EVEN_MC_COMMANDS:
            ceiling = 2 * slot.degrees[0] * slot.degrees[-1]
            hist = {int(k): int(v) for k, v in report["histogram"].items()}
            if sum(hist.values()) != report["estimate"]["trials"] or (
                report["estimate"]["trials"] != slot.trials
            ):
                return "histogram does not add up to the trials"
            bad = [k for k in hist if k % 2 or k > ceiling]
            if bad:
                return f"counts {bad} odd or above the ceiling {ceiling}"
            return None
        if slot.command == "zonal":
            if report["zero_count"] != 2 * m or len(report["zeros"]) != 2 * m:
                return f"zonal pair has {report['zero_count']} zeros, expected {2 * m}"
            return None
        if slot.command == "crofton-length":
            if report["estimate"]["trials"] != slot.trials:
                return "wrong trial count"
            if report["mean_crossings"] > 2 * m + 1e-12:
                return f"mean crossings {report['mean_crossings']} above 2m"
            return None
        if slot.command == "invariants":
            for ident in report["identities"]:
                if not ident["passed"] or ident["max_residual"] > TOL_IDENTITY[ident["name"]]:
                    return f"identity {ident['name']} residual {ident['max_residual']:.3g}"
            return None
        if slot.command == "embedding":
            emb = report["embedding"]
            if slot.sphere == 2:
                eig, dim, vol, cover = m * (m + 1), 2 * m + 1, 4.0 * math.pi, 2 - m % 2
            else:
                eig, dim, vol, cover = m * m, 2, 2.0 * math.pi, m
            n = slot.sphere
            predicted = (eig * dim / (n * vol)) ** (n / 2.0) * vol / cover
            if emb["covering_degree"] != cover:
                return f"covering degree {emb['covering_degree']}, expected {cover}"
            if abs(emb["numeric_image_volume"] - predicted) > TOL_IMAGE_VOLUME * predicted:
                return f"image volume {emb['numeric_image_volume']} vs {predicted}"
            if abs(emb["radius"] ** 2 - dim / vol) > 1e-6 * dim / vol:
                return f"radius {emb['radius']} vs sqrt({dim / vol})"
            return None
        raise ValueError(f"unknown command {slot.command}")

    def _pool(self, index: int, op: Op, report: dict) -> None:
        slot = op.slot
        m = slot.degrees[0]
        if slot.command in EVEN_MC_COMMANDS and len(set(slot.degrees)) == 1:
            theory = m * (m + 1)
            hist = {int(k): int(v) for k, v in report["histogram"].items()}
            n = sum(hist.values())
            s1 = sum(f * (k - theory) for k, f in hist.items())
            s2 = sum(f * (k - theory) ** 2 for k, f in hist.items())
            self.average.add(index, n, float(s1), float(s2))
        elif slot.command == "crofton-length" and slot.function == "zonal":
            # The report holds the mean and standard error of the per-circle
            # length pi * crossings; recover the sums of the deviations from
            # the exact length.
            n = int(report["estimate"]["trials"])
            mean = report["estimate"]["mean"]
            stderr = report["estimate"]["stderr"]
            ref = zonal_length(m)
            sum_len = n * mean
            sum_sq = (n - 1) * n * stderr * stderr + n * mean * mean
            self.crofton.add(index, n, sum_len - n * ref, sum_sq - 2 * ref * sum_len + n * ref * ref)
