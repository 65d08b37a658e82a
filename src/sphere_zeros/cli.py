"""Command-line entry point: run experiments and write machine-readable reports.

Subcommands:

* ``invariants``      pointwise identity and orthonormality sweep
* ``count``           one zero-finding run on a seeded random sample
* ``average``         Monte Carlo average of common zero counts
* ``conjecture``      mixed-degree average (experimental)
* ``zonal``           tilted axis-symmetric pair construction
* ``embedding``       radius / dilation / covering-degree / image-volume report
* ``crofton-length``  nodal length from random great-circle crossings

Every run writes exactly one report record (JSON object or flat CSV) to
stdout or ``--out``.  Reports embed the full configuration, the package
version, and the closed-form reference value with a stable formula
identifier, and are byte-identical for identical configuration and seed.

Exit codes: 0 success, 2 invalid configuration or input or an unwritable
report (``--out`` or stdout).  ``main`` reads the other two off the report:
4 when its ``status`` is Degenerate (a single-run zero set), else 3 when it
names a ``violated`` identity or count bound.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .embedding import COVERING_PROBES, MAX_QUADRATURE_DEPTH, image_volume
from .harmonics import (
    MAX_DEGREE,
    SphereInputError,
    build_basis,
    gradient_sum_residual,
    orthonormality_residual,
    random_sphere_points,
    unsold_residual,
    zonal,
)
from .integralgeom import (
    average_zero_count,
    conjecture_mixed_average,
    crofton_length,
    sample_subspace,
    zonal_nodal_length,
    zonal_pair_demo,
    zonal_tilt_threshold,
)
from .zerofinder import (
    DEDUP_RADIUS,
    MAX_NEWTON_ITER,
    NEWTON_TOL,
    SolverStatus,
    find_common_zeros_s1,
    find_common_zeros_s2,
    verify_bezout,
)

DEFAULT_SEED = 12345

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_INVARIANT_VIOLATION = 3
EXIT_DEGENERATE = 4

# Stable identifiers tying reported reference values to their closed forms.
FORMULA_GRADIENT_SUM = "THM_2_1"
FORMULA_SUM_OF_SQUARES = "THM_2_3"
FORMULA_IMAGE_VOLUME = "THM_2_4"
FORMULA_COUNT_BOUND = "THM_4_1"
FORMULA_CROFTON = "SEC3_CROFTON"
FORMULA_ZONAL_PAIR = "SEC5_ZONAL"

# Tolerances pinned by the verification contract.
TOL_ORTHONORMALITY = 1e-8
TOL_SUM_OF_SQUARES = 1e-8        # relative
TOL_GRADIENT_SUM = 1e-6          # relative
TOL_DILATION = 1e-6              # relative
TOL_IMAGE_VOLUME = 5e-3          # relative
MAX_TRIALS = 10**6
MAX_POINTS = 10**5               # --points


class ConfigError(ValueError):
    pass


def _config_echo(args, fields: list[str]) -> dict:
    return {name: getattr(args, name) for name in fields}


def _solver_echo() -> dict:
    """The fixed Newton and dedup constants, echoed by every report that finds zeros."""
    return {"newton_tol": NEWTON_TOL, "max_iter": MAX_NEWTON_ITER, "dedup_radius": DEDUP_RADIUS}


def _report_skeleton(command: str, config: dict) -> dict:
    return {
        "command": command,
        "version": __version__,
        "config": config,
        "theory": {"value": None, "formula_id": None},
        "estimate": {"mean": None, "stderr": None, "trials": None},
        "experimental": False,
        "diagnostics": {
            "degenerate_resamples": 0,
            "depth_escalations": 0,
            "max_residual": None,
        },
    }


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    else:
        out[prefix] = value


def _csv_cell(value) -> str:
    if isinstance(value, (list, tuple)):
        return '"' + json.dumps(value).replace('"', '""') + '"'
    if isinstance(value, str):
        return '"' + value.replace('"', '""') + '"'
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return json.dumps(value)


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    flat: dict = {}
    _flatten("", report, flat)
    header = ",".join(flat.keys())
    row = ",".join(_csv_cell(v) for v in flat.values())
    return header + "\n" + row + "\n"


def write_report(report: dict, fmt: str, out_path: str | None) -> None:
    text = render_report(report, fmt)
    try:
        if out_path is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        if out_path is None:    # the flush at exit would fail again: let it go to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        target = "stdout" if out_path is None else out_path
        raise ConfigError(f"cannot write the report to {target}: {exc.strerror}") from exc


def _validate_common(args) -> None:
    if getattr(args, "trials", None) is not None and not 1 <= args.trials <= MAX_TRIALS:
        raise ConfigError(f"trials must be in [1, {MAX_TRIALS}]")
    if getattr(args, "seed", None) is not None and args.seed < 0:
        raise ConfigError("seed must be >= 0")
    if getattr(args, "points", None) is not None and not 1 <= args.points <= MAX_POINTS:
        raise ConfigError(f"points must be in [1, {MAX_POINTS}]")
    degrees = (getattr(args, "degree", None), getattr(args, "degree2", None))
    for value in degrees + tuple(getattr(args, "degrees", ())):
        if value is not None and not 1 <= value <= MAX_DEGREE:
            raise ConfigError(f"degrees must be in [1, {MAX_DEGREE}]")
    qdepth = getattr(args, "quadrature_depth", None)
    if qdepth is not None and not 1 <= qdepth <= MAX_QUADRATURE_DEPTH:
        raise ConfigError(f"quadrature depth must be in [1, {MAX_QUADRATURE_DEPTH}]")


def _zero_set_report(report: dict, result) -> bool:
    """Write one zero-finding result into the report; True if it is Degenerate."""
    report["diagnostics"].update(
        depth_escalations=result.escalations,
        max_residual=None if math.isnan(result.max_residual) else result.max_residual,
    )
    report["status"] = result.status.value
    report["zero_count"] = result.count
    report["zeros"] = [[float(c) for c in z] for z in result.zeros]
    return result.status is SolverStatus.DEGENERATE


def run_average(args) -> dict:
    """``average`` (n functions of one degree) and ``conjecture`` (two S2 degrees)."""
    if args.command == "average":
        config = _config_echo(args, ["sphere", "degree"])
        bases = [build_basis(args.sphere, args.degree)] * args.sphere
        estimator = average_zero_count   # the module attribute at call time, which tracing may wrap
    else:
        degree, degree2 = args.degrees
        config = {"degree": degree, "degree2": degree2}
        bases = [build_basis(2, degree), build_basis(2, degree2)]
        estimator = conjecture_mixed_average
    report = _report_skeleton(args.command, {**config, **_config_echo(args, ["trials", "seed"])})
    result = estimator(bases, args.trials, args.seed)
    report["theory"] = {"value": result.theory, "formula_id": result.formula_id}
    report["estimate"] = {"mean": result.mean, "stderr": result.stderr, "trials": result.trials}
    report["experimental"] = result.experimental
    report["diagnostics"] = {
        "degenerate_resamples": result.degenerate_resamples,
        "min_off_circle_margin": result.min_off_circle_margin,
    }
    report["histogram"] = {str(k): v for k, v in sorted(result.histogram.items())}
    report["relative_deviation"] = result.relative_deviation
    report["within_4_stderr"] = result.within_band
    return report


def run_count(args) -> dict:
    config = {**_config_echo(args, ["sphere", "degree", "degree2", "seed"]), **_solver_echo()}
    report = _report_skeleton("count", config)
    rng = np.random.default_rng([args.seed, 0, 0])
    if args.sphere == 1:
        if args.degree2 is not None:
            raise ConfigError("a second degree is only meaningful on S2")
        basis = build_basis(1, args.degree)
        sample = sample_subspace([basis], rng)
        result = find_common_zeros_s1(basis, sample)
    else:
        degree2 = args.degree2 if args.degree2 is not None else args.degree
        bases = [build_basis(2, args.degree), build_basis(2, degree2)]
        sample = sample_subspace(bases, rng)
        result = find_common_zeros_s2(bases, sample)
    report["theory"] = {"value": float(result.bezout_bound), "formula_id": FORMULA_COUNT_BOUND}
    if not _zero_set_report(report, result) and not verify_bezout(result):
        report["violated"] = FORMULA_COUNT_BOUND
    return report


def run_zonal(args) -> dict:
    threshold = zonal_tilt_threshold(args.degree)
    alpha = threshold / 2.0 if args.alpha is None else args.alpha
    config = {"degree": args.degree, "alpha": alpha, **_solver_echo(), "alpha_threshold": threshold}
    report = _report_skeleton("zonal", config)
    result = zonal_pair_demo(args.degree, alpha)
    report["theory"] = {"value": float(2 * args.degree), "formula_id": FORMULA_ZONAL_PAIR}
    if not _zero_set_report(report, result) and alpha < threshold and result.count != 2 * args.degree:
        report["violated"] = FORMULA_ZONAL_PAIR
    return report


def run_invariants(args) -> dict:
    config_fields = ["sphere", "degree", "points", "seed"]
    report = _report_skeleton("invariants", _config_echo(args, config_fields))
    basis = build_basis(args.sphere, args.degree)
    rng = np.random.default_rng([args.seed, basis.sphere_dim, basis.degree])
    points = random_sphere_points(basis.sphere_dim, args.points, rng)
    checks = [
        ("orthonormality", None, orthonormality_residual(basis), TOL_ORTHONORMALITY),
        ("sum_of_squares", FORMULA_SUM_OF_SQUARES, unsold_residual(basis, points), TOL_SUM_OF_SQUARES),
        ("gradient_sum", FORMULA_GRADIENT_SUM, gradient_sum_residual(basis, points), TOL_GRADIENT_SUM),
    ]
    report["identities"] = [
        {"name": name, "formula_id": formula, "max_residual": residual,
         "tolerance": tolerance, "passed": residual <= tolerance}
        for name, formula, residual, tolerance in checks
    ]
    report["diagnostics"]["max_residual"] = max(0.0, *(residual for _, _, residual, _ in checks))
    failed = [item["name"] for item in report["identities"] if not item["passed"]]
    if failed:
        report["violated"] = failed[0]
    return report


def run_embedding(args) -> dict:
    # The S1 quadrature and covering degree use neither the depth nor the probes.
    if args.sphere == 1:
        config = _config_echo(args, ["sphere", "degree", "seed"])
    else:
        fields = ["sphere", "degree", "quadrature_depth"]
        config = {**_config_echo(args, fields), "probes": COVERING_PROBES, "seed": args.seed}
    report = _report_skeleton("embedding", config)
    basis = build_basis(args.sphere, args.degree)
    emb = image_volume(basis, args.quadrature_depth, seed=args.seed)
    report["theory"] = {"value": emb.predicted_image_volume, "formula_id": FORMULA_IMAGE_VOLUME}
    report["embedding"] = {
        "radius": emb.radius,
        "radius_squared_expected": basis.unsold_constant,
        "dilation": emb.dilation,
        "covering_degree": emb.covering_degree,
        "numeric_integral": emb.numeric_integral,
        "numeric_image_volume": emb.numeric_image_volume,
        "predicted_image_volume": emb.predicted_image_volume,
        "max_gram_residual": emb.max_gram_residual,
        "antipodal_identified": emb.antipodal_identified,
    }
    report["diagnostics"]["max_residual"] = emb.max_gram_residual
    violated = None
    if emb.max_gram_residual > TOL_DILATION * emb.dilation:
        violated = "dilation"
    elif abs(emb.numeric_image_volume - emb.predicted_image_volume) > (
        TOL_IMAGE_VOLUME * emb.predicted_image_volume
    ):
        violated = "image_volume"
    elif args.sphere == 2 and (emb.covering_degree == 2) != (args.degree % 2 == 0):
        violated = "covering_parity"
    if violated is not None:
        report["violated"] = violated
    return report


def run_crofton_length(args) -> dict:
    config_fields = ["degree", "function", "trials", "seed"]
    report = _report_skeleton("crofton-length", _config_echo(args, config_fields))
    basis = build_basis(2, args.degree)
    if args.function == "zonal":
        coeffs = zonal(basis, np.array([0.0, 0.0, 1.0]))
        report["theory"]["value"] = zonal_nodal_length(args.degree)
    else:
        coeffs = np.random.default_rng([args.seed, 7, args.degree]).standard_normal(
            basis.dimension
        )
    report["theory"]["formula_id"] = FORMULA_CROFTON
    result = crofton_length(basis, coeffs, args.trials, args.seed)
    report["estimate"] = {
        "mean": result.length,
        "stderr": result.stderr,
        "trials": result.trials,
    }
    report["mean_crossings"] = result.mean_crossings
    report["diagnostics"]["degenerate_resamples"] = result.degenerate_resamples
    return report


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="report path (default: stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing never mutates it."""
    parser = argparse.ArgumentParser(
        prog="sphere-zeros",
        description="Zero counting and identity verification for eigenfunctions on S1 and S2",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("average", help="Monte Carlo average of common zero counts")
    p.add_argument("--sphere", type=int, choices=(1, 2), default=2)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--trials", type=int, default=400)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output_flags(p)
    p.set_defaults(func=run_average)

    p = sub.add_parser("conjecture", help="mixed-degree average on S2 (experimental)")
    p.add_argument("--degrees", type=int, nargs=2, required=True, metavar=("M1", "M2"))
    p.add_argument("--trials", type=int, default=400)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output_flags(p)
    p.set_defaults(func=run_average)

    p = sub.add_parser("count", help="one zero-finding run on a random sample")
    p.add_argument("--sphere", type=int, choices=(1, 2), default=2)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--degree2", type=int, default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output_flags(p)
    p.set_defaults(func=run_count)

    p = sub.add_parser("zonal", help="tilted axis-symmetric pair demo")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--alpha", type=float, default=None, help="tilt angle (default: threshold/2)")
    _add_output_flags(p)
    p.set_defaults(func=run_zonal)

    p = sub.add_parser("invariants", help="pointwise identity and orthonormality sweep")
    p.add_argument("--sphere", type=int, choices=(1, 2), default=2)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output_flags(p)
    p.set_defaults(func=run_invariants)

    p = sub.add_parser("embedding", help="radius, dilation, covering degree, image volume")
    p.add_argument("--sphere", type=int, choices=(1, 2), default=2)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--quadrature-depth", type=int, default=4, dest="quadrature_depth")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output_flags(p)
    p.set_defaults(func=run_embedding)

    p = sub.add_parser("crofton-length", help="nodal length from random circle crossings")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--function", choices=("zonal", "random"), default="zonal")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output_flags(p)
    p.set_defaults(func=run_crofton_length)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _validate_common(args)
        report = args.func(args)
        write_report(report, args.format, args.out)
    except (ConfigError, SphereInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    if report.get("status") == SolverStatus.DEGENERATE:
        print("degenerate zero set", file=sys.stderr)
        return EXIT_DEGENERATE
    if "violated" in report:
        print(f"invariant violation: {report['violated']}", file=sys.stderr)
        return EXIT_INVARIANT_VIOLATION
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
