"""Acceptance suite: every verification target at its pinned tolerance.

Each test prints one PASS/FAIL line per criterion (run with ``pytest -s``
to see them on success).  Criteria:

1. S2 averages for m = 1..5 match m(m+1) within four standard errors and 5%.
2. S1 counts are exactly 2m for m = 1..50 with zero variance.
3. Over 10^4 random S2 samples with degrees <= 5, no finite zero set
   exceeds the 2*m1*m2 ceiling, and none is Unconfirmed: the mesh and the
   great-circle pencil count the same zeros on every sample.
4. Pointwise sum-of-squares and gradient-sum identities hold for m <= 10.
5. Image volumes (3 for m=1, 15 for m=2), dilation residuals, and the
   covering-degree parity law hold.
6. The tilted axis-symmetric pair has exactly 2m zeros for m = 1..8.
7. The circle-crossing length estimator reproduces known lengths.
8. Mixed-degree averages match sqrt(lam1 lam2) within four standard errors
   (a Kac-Rice theorem under the Gaussian sampling model), and for m1 = 1
   agree with the crossing estimator within three combined standard errors.
9. Reports are byte-identical when configuration and seed repeat.
"""

import math

import numpy as np

from sphere_zeros import (
    SolverStatus,
    build_basis,
    average_zero_count,
    conjecture_mixed_average,
    crofton_length,
    find_common_zeros_s2,
    image_volume,
    restrict_to_great_circle,
    zonal,
    zonal_pair_demo,
    zonal_tilt_threshold,
)
from sphere_zeros.cli import main
from sphere_zeros.integralgeom import circle_frames, sample_subspace, zonal_nodal_length

ACCEPTANCE_SEED = 20_108


def record(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{criterion} failed: {detail}"


def test_criterion_1_sphere_average_matches_closed_form():
    for m in range(1, 6):
        basis = build_basis(2, m)
        report = average_zero_count([basis, basis], trials=400, seed=ACCEPTANCE_SEED + m)
        target = float(m * (m + 1))
        assert report.theory == target
        band = abs(report.mean - target) <= 4.0 * report.stderr + 1e-12
        tight = abs(report.mean - target) / target <= 0.05
        record(
            "criterion 1",
            band and tight,
            f"m={m}: mean={report.mean:.4f} stderr={report.stderr:.4f} target={target}",
        )


def test_criterion_2_circle_counts_exact():
    for m in range(1, 51):
        basis = build_basis(1, m)
        report = average_zero_count([basis], trials=12, seed=ACCEPTANCE_SEED + m)
        ok = report.mean == float(2 * m) and report.stderr == 0.0
        assert ok, f"m={m}: mean={report.mean} stderr={report.stderr}"
    record("criterion 2", True, "S1 counts exactly 2m with zero variance for m=1..50")


def test_criterion_3_count_ceiling_never_exceeded():
    # A first pass covers every degree pair evenly; a second pass tops the
    # sample count up past 10^4 on the cheap low-degree pairs.  Every solve
    # counts the zeros with the great-circle pencil and finds them on the
    # mesh, and is Complete only where the two counts agree.
    draws = [
        ((m1, m2), [ACCEPTANCE_SEED, m1, m2, t])
        for m1 in range(1, 6) for m2 in range(1, 6) for t in range(160)
    ] + [
        ((m1, m2), [ACCEPTANCE_SEED + 1, m1, m2, t])
        for m1, m2 in [(1, 1), (1, 2), (2, 1), (2, 2)] for t in range(1500)
    ]
    worst_excess = -(10**9)
    degenerate = 0
    unconfirmed = []
    for (m1, m2), seed in draws:
        bases = [build_basis(2, m1), build_basis(2, m2)]
        bound = 2 * m1 * m2
        sample = sample_subspace(bases, np.random.default_rng(seed))
        result = find_common_zeros_s2(bases, sample)
        if result.status is SolverStatus.DEGENERATE:
            degenerate += 1
            continue
        worst_excess = max(worst_excess, result.count - bound)
        assert result.count <= bound, f"({m1},{m2}) seed {seed}: {result.count} > {bound}"
        if result.status is SolverStatus.UNCONFIRMED:
            unconfirmed.append((seed, result.count))
    record(
        "criterion 3",
        len(draws) >= 10_000,
        f"{len(draws)} samples, worst count-minus-bound={worst_excess}, degenerate={degenerate}",
    )
    record(
        "criterion 3",
        not unconfirmed,
        f"{len(draws) - degenerate - len(unconfirmed)} Complete, Unconfirmed {unconfirmed}",
    )


def test_criterion_4_pointwise_identities():
    from sphere_zeros.harmonics import gradient_sum_residual, random_sphere_points, unsold_residual

    worst_sq = 0.0
    worst_grad = 0.0
    for m in range(1, 11):
        basis = build_basis(2, m)
        pts = random_sphere_points(2, 100, np.random.default_rng([ACCEPTANCE_SEED, m]))
        worst_sq = max(worst_sq, unsold_residual(basis, pts))
        worst_grad = max(worst_grad, gradient_sum_residual(basis, pts))
    record(
        "criterion 4",
        worst_sq <= 1e-8 and worst_grad <= 1e-6,
        f"sum-of-squares residual {worst_sq:.2e} (tol 1e-8), "
        f"gradient-sum residual {worst_grad:.2e} (tol 1e-6)",
    )


def test_criterion_5_embedding_package():
    from sphere_zeros import dilation_check
    from sphere_zeros.harmonics import random_sphere_points

    report1 = image_volume(build_basis(2, 1), quadrature_depth=4)
    ok1 = abs(report1.numeric_integral - 3.0) <= 1e-4
    record("criterion 5a", ok1, f"m=1 volume {report1.numeric_integral:.8f} vs 3 (tol 1e-4)")

    report2 = image_volume(build_basis(2, 2), quadrature_depth=4)
    ok2 = abs(report2.numeric_integral - 15.0) <= 5e-3 * 15.0
    record("criterion 5b", ok2, f"m=2 volume {report2.numeric_integral:.6f} vs 15 (tol 0.5%)")

    worst = 0.0
    for m in range(1, 11):
        basis = build_basis(2, m)
        pts = random_sphere_points(2, 100, np.random.default_rng([ACCEPTANCE_SEED, 5, m]))
        rel = max(dilation_check(basis, p) for p in pts) / basis.dilation_constant
        worst = max(worst, rel)
    record("criterion 5c", worst <= 1e-6, f"dilation residual {worst:.2e} (tol 1e-6 relative)")

    from sphere_zeros import covering_degree

    parity_ok = all(
        covering_degree(build_basis(2, m), np.random.default_rng([ACCEPTANCE_SEED, m]))
        == (2 if m % 2 == 0 else 1)
        for m in range(1, 11)
    )
    record("criterion 5d", parity_ok, "covering degree is 2 exactly for even m (m <= 10)")


def test_criterion_6_tilted_pair_counts():
    for m in range(1, 9):
        alpha = zonal_tilt_threshold(m) / 2.0
        result = zonal_pair_demo(m, alpha)
        ok = result.count == 2 * m and result.status is not SolverStatus.DEGENERATE
        record("criterion 6", ok, f"m={m} alpha={alpha:.4f}: {result.count} zeros (expect {2*m})")


def test_criterion_7_length_estimator():
    basis1 = build_basis(2, 1)
    equator = crofton_length(
        basis1, zonal(basis1, np.array([0.0, 0.0, 1.0])), trials=2000, seed=ACCEPTANCE_SEED
    )
    ok = abs(equator.length - 2.0 * math.pi) <= 0.02 * 2.0 * math.pi
    record("criterion 7", ok, f"equator length {equator.length:.5f} vs {2*math.pi:.5f} (tol 2%)")

    for m in range(2, 7):
        basis = build_basis(2, m)
        reference = zonal_nodal_length(m)
        report = crofton_length(
            basis,
            zonal(basis, np.array([0.0, 0.0, 1.0])),
            trials=2000,
            seed=ACCEPTANCE_SEED + m,
        )
        ok = abs(report.length - reference) <= 3.0 * report.stderr
        record(
            "criterion 7",
            ok,
            f"m={m}: length {report.length:.4f} vs {reference:.4f} "
            f"(3*stderr = {3*report.stderr:.4f})",
        )


def test_criterion_8_mixed_degree_conjecture():
    for m1, m2 in [(1, 2), (2, 3), (1, 4)]:
        bases = [build_basis(2, m1), build_basis(2, m2)]
        report = conjecture_mixed_average(bases, trials=400, seed=ACCEPTANCE_SEED + 10 * m1 + m2)
        assert report.experimental
        record(
            "criterion 8",
            report.within_band,
            f"degrees ({m1},{m2}): mean={report.mean:.4f} stderr={report.stderr:.4f} "
            f"sqrt(lam1 lam2)={report.theory:.4f}",
        )
        if m1 != 1:
            continue
        # Hard assertion: consistency with the circle-crossing estimator.
        # A random degree-1 zero set is a uniform great circle, so the mixed
        # count and the crossing count of a random degree-m2 function are
        # draws of the same distribution.
        counts = np.empty(400)
        for t in range(counts.size):
            rng = np.random.default_rng([ACCEPTANCE_SEED, 8, m2, t])
            coeffs = rng.standard_normal(bases[1].dimension)
            frames = circle_frames(rng.standard_normal((1, 2, 3)))
            counts[t] = restrict_to_great_circle(bases[1], coeffs, frames)[1][0]
        cross_mean = counts.mean()
        cross_stderr = counts.std(ddof=1) / math.sqrt(counts.size)
        combined = math.hypot(report.stderr, cross_stderr)
        ok = abs(report.mean - cross_mean) <= 3.0 * combined
        record(
            "criterion 8",
            ok,
            f"degrees ({m1},{m2}): mixed mean {report.mean:.4f} vs crossing mean "
            f"{cross_mean:.4f} (3 combined stderr = {3*combined:.4f})",
        )


def test_criterion_9_determinism(tmp_path, capsys):
    runs = {
        "average": ["average", "--sphere", "2", "--degree", "2", "--trials", "400",
                     "--seed", str(ACCEPTANCE_SEED)],
        "zonal": ["zonal", "--degree", "5"],
        "embedding": ["embedding", "--sphere", "2", "--degree", "3"],
        "crofton": ["crofton-length", "--degree", "2", "--trials", "500",
                     "--seed", str(ACCEPTANCE_SEED)],
    }
    for name, argv in runs.items():
        a = tmp_path / f"{name}_a.json"
        b = tmp_path / f"{name}_b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes(), f"{name} reports differ between runs"
    record("criterion 9", True, "byte-identical reports for repeated seeded runs")
