"""Monte Carlo averages, subspace sampling, and the circle-crossing length estimator."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import legval

from sphere_zeros import (
    SolverStatus,
    SphereInputError,
    build_basis,
    average_zero_count,
    conjecture_mixed_average,
    crofton_length,
    restrict_to_great_circle,
    sample_subspace,
    sphere_surface_area,
    zonal,
    zonal_pair_demo,
    zonal_tilt_threshold,
)
from sphere_zeros import harmonics, integralgeom, zerofinder
from sphere_zeros.integralgeom import (
    circle_frames,
    theoretical_average,
    zonal_nodal_colatitudes,
    zonal_nodal_length,
)

from oracles import rotate_coefficients

EQUATOR = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


class TestSurfaceArea:
    def test_circle(self):
        assert sphere_surface_area(1) == pytest.approx(2.0 * math.pi, rel=1e-14)

    def test_sphere(self):
        assert sphere_surface_area(2) == pytest.approx(4.0 * math.pi, rel=1e-14)

    def test_three_sphere(self):
        assert sphere_surface_area(3) == pytest.approx(2.0 * math.pi**2, rel=1e-14)

    def test_three_sphere_monte_carlo_oracle(self):
        # sigma_3 = 4 * V_4 with V_4 the volume of the unit 4-ball, estimated
        # by rejection sampling in the 4-cube.
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1.0, 1.0, size=(400_000, 4))
        inside = np.count_nonzero(np.einsum("pi,pi->p", pts, pts) <= 1.0)
        v4 = 16.0 * inside / len(pts)
        assert sphere_surface_area(3) == pytest.approx(4.0 * v4, rel=0.02)

    def test_rejects_bad_dimension(self):
        with pytest.raises(SphereInputError):
            sphere_surface_area(0)


class TestSampleSubspace:
    def test_deterministic_for_fixed_seed(self):
        basis = build_basis(2, 3)
        s1 = sample_subspace([basis, basis], np.random.default_rng(99))
        s2 = sample_subspace([basis, basis], np.random.default_rng(99))
        assert np.array_equal(s1.rows, s2.rows)

    def test_first_coordinate_distribution(self):
        # <row, e1>/|row| must match the first coordinate of a uniform point
        # on S^(N-1); oracle: Beta CDF via the half-angle transform.
        stats = pytest.importorskip("scipy.stats")
        basis = build_basis(2, 4)      # N = 9
        n = basis.dimension
        rng = np.random.default_rng(12)
        draws = np.empty(10_000)
        for i in range(draws.size):
            row = sample_subspace([basis, basis], rng).rows[0]
            draws[i] = row[0] / np.linalg.norm(row)
        result = stats.kstest(draws, lambda t: stats.beta.cdf((1.0 + t) / 2.0, (n - 1) / 2.0, (n - 1) / 2.0))
        assert result.pvalue > 0.01

    def test_rotating_rows_leaves_count_statistics_unchanged(self):
        basis = build_basis(2, 2)
        rng = np.random.default_rng(31)
        rotation = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        from sphere_zeros import find_common_zeros_s2, make_sample

        plain, rotated = [], []
        for t in range(120):
            sample = sample_subspace([basis, basis], np.random.default_rng([5, t]))
            plain.append(find_common_zeros_s2([basis, basis], sample).count)
            turned = make_sample(
                [rotate_coefficients(basis, row, rotation) for row in sample.rows], [2, 2]
            )
            rotated.append(find_common_zeros_s2([basis, basis], turned).count)
        # The rotated sample is the same subspace moved by an isometry, so
        # counts agree trial by trial, not just on average.
        assert plain == rotated


class TestAverageZeroCount:
    def test_circle_degree6_exact(self):
        basis = build_basis(1, 6)
        report = average_zero_count([basis], trials=40, seed=1)
        assert report.mean == 12.0
        assert report.stderr == 0.0
        assert report.theory == 12.0
        assert report.histogram == {12: 40}

    def test_sphere_degree1_always_two(self):
        basis = build_basis(2, 1)
        report = average_zero_count([basis, basis], trials=50, seed=2)
        assert report.mean == 2.0
        assert report.stderr == 0.0
        assert report.theory == 2.0

    def test_sphere_degree3_within_band(self):
        basis = build_basis(2, 3)
        report = average_zero_count([basis, basis], trials=150, seed=3)
        assert report.theory == 12.0
        assert abs(report.mean - 12.0) <= 4.0 * report.stderr
        assert not report.experimental
        assert report.formula_id == "THM_1_1"

    def test_histogram_consistent_with_mean(self):
        basis = build_basis(2, 2)
        report = average_zero_count([basis, basis], trials=64, seed=4)
        total = sum(count * freq for count, freq in report.histogram.items())
        assert total / report.trials == report.mean
        assert sum(report.histogram.values()) == report.trials

    def test_closed_form_values(self):
        for m in range(1, 51):
            s2, s1 = build_basis(2, m), build_basis(1, m)
            assert theoretical_average(2, [s2.eigenvalue] * 2, s2.manifold_volume) == m * (m + 1)
            assert theoretical_average(1, [s1.eigenvalue], s1.manifold_volume) == 2 * m

    def test_requires_equal_degrees(self):
        with pytest.raises(SphereInputError):
            average_zero_count([build_basis(2, 1), build_basis(2, 2)], trials=4)

    def test_no_bases_need_as_many_functions_as_the_sphere_dimension(self):
        with pytest.raises(SphereInputError, match="need as many functions as the sphere dimension"):
            average_zero_count([], trials=3)

    def test_solver_degree_is_checked_before_any_draw(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(integralgeom, "sample_subspace", no_draw)
        high, low = build_basis(2, 13), build_basis(2, 2)
        with pytest.raises(SphereInputError, match="degrees up to 12"):
            average_zero_count([high, high], trials=10**6)
        with pytest.raises(SphereInputError, match="degrees up to 12"):
            conjecture_mixed_average([high, low], trials=400)

    def test_determinism(self):
        basis = build_basis(2, 2)
        r1 = average_zero_count([basis, basis], trials=30, seed=8)
        r2 = average_zero_count([basis, basis], trials=30, seed=8)
        assert r1 == r2

    def test_declined_draws_are_redrawn_and_counted_as_resamples(self, monkeypatch):
        # A pencil that declines the first draw of every trial: each trial is
        # counted from its draw (seed, trial, 1) and reports one resample.
        bases = [build_basis(2, 2), build_basis(2, 3)]
        seed, trials = 6, 5
        first = {
            sample_subspace(bases, np.random.default_rng([seed, t, 0])).rows.tobytes()
            for t in range(trials)
        }
        pencil = integralgeom.pencil_counts
        redrawn = pencil(
            bases, [sample_subspace(bases, np.random.default_rng([seed, t, 1])) for t in range(trials)]
        )

        def declining(b, samples):
            counted = pencil(b, samples)
            return [None if s.rows.tobytes() in first else c for s, c in zip(samples, counted)]

        monkeypatch.setattr(integralgeom, "pencil_counts", declining)
        report = conjecture_mixed_average(bases, trials=trials, seed=seed)
        assert report.degenerate_resamples == trials
        assert report.histogram == Counter(c for c, _ in redrawn)
        assert report.min_off_circle_margin == min(m for _, m in redrawn)

    def test_chunks_and_redraws_leave_the_report_unchanged(self, monkeypatch):
        # A pencil that declines the first draws of trials 1, 4, 5 and 9.  In
        # chunks of 3 each chunk redraws its own declined trials before the
        # next chunk is drawn; the report is the one of a single chunk.
        bases = [build_basis(2, 2), build_basis(2, 3)]
        seed, trials = 6, 10
        first = {
            sample_subspace(bases, np.random.default_rng([seed, t, 0])).rows.tobytes()
            for t in (1, 4, 5, 9)
        }
        pencil = integralgeom.pencil_counts
        sizes = []

        def declining(b, samples):
            sizes.append(len(samples))
            counted = pencil(b, samples)
            return [None if s.rows.tobytes() in first else c for s, c in zip(samples, counted)]

        monkeypatch.setattr(integralgeom, "pencil_counts", declining)
        whole = conjecture_mixed_average(bases, trials=trials, seed=seed)
        assert sizes == [10, 4] and whole.degenerate_resamples == 4
        sizes.clear()
        monkeypatch.setattr(integralgeom, "AVERAGE_CHUNK_TRIALS", 3)
        assert conjecture_mixed_average(bases, trials=trials, seed=seed) == whole
        assert sizes == [3, 1, 3, 2, 3, 1, 1]

    @pytest.mark.parametrize("m, seed", [(2, 486652553), (3, 1100282271), (4, 1132403347)])
    def test_averages_never_run_the_mesh(self, m, seed, monkeypatch):
        # Trial 0 of these seeds is a draw whose best pencil center declines
        # (see tests/test_zerofinder.py); it is counted at a later center.
        def no_mesh(*args):
            raise AssertionError("an average ran the mesh solver")

        # One Sylvester build serves one round of centers for all pending
        # trials; it is recorded once per trial it serves.
        centers = []
        sylvester = zerofinder._pencil_sylvester
        monkeypatch.setattr(integralgeom, "find_common_zeros_s2", no_mesh)
        monkeypatch.setattr(
            zerofinder,
            "_pencil_sylvester",
            lambda p1, p2: centers.extend([None] * p1.shape[0]) or sylvester(p1, p2),
        )
        basis = build_basis(2, m)
        for estimator in (average_zero_count, conjecture_mixed_average):
            centers.clear()
            report = estimator([basis, basis], trials=2, seed=seed)
            assert report.degenerate_resamples == 0 and len(centers) > report.trials

    def test_circle_trials_report_no_margin(self):
        report = average_zero_count([build_basis(1, 3)], trials=5, seed=1)
        assert report.min_off_circle_margin is None


class TestConjectureMixedAverage:
    def test_equal_degrees_reduce_to_main_average(self):
        basis = build_basis(2, 3)
        report = conjecture_mixed_average([basis, basis], trials=1, seed=0)
        assert report.theory == average_zero_count([basis, basis], trials=1, seed=0).theory == 12.0

    @settings(max_examples=50)
    @given(m1=st.integers(1, 50), m2=st.integers(1, 50))
    def test_mixed_value_is_sqrt_of_eigenvalue_product(self, m1, m2):
        lam1, lam2 = build_basis(2, m1).eigenvalue, build_basis(2, m2).eigenvalue
        value = theoretical_average(2, [lam1, lam2], 4 * math.pi)
        assert value == math.sqrt(lam1 * lam2)
        assert value == theoretical_average(2, [lam2, lam1], 4 * math.pi)

    def test_conjectured_value_degree_1_2(self):
        report = conjecture_mixed_average(
            [build_basis(2, 1), build_basis(2, 2)], trials=1, seed=0
        )
        assert report.theory == math.sqrt(12.0)
        assert report.experimental
        assert report.formula_id == "SEC5_CONJECTURE"

    def test_degree_1_2_within_band(self):
        report = conjecture_mixed_average(
            [build_basis(2, 1), build_basis(2, 2)], trials=250, seed=5
        )
        assert abs(report.mean - math.sqrt(12.0)) <= 4.0 * report.stderr

    def test_rejects_circle(self):
        with pytest.raises(SphereInputError):
            conjecture_mixed_average([build_basis(1, 1), build_basis(1, 2)], trials=4)


class TestCroftonLength:
    def test_equator_length_exact(self):
        # Any great circle distinct from the equator crosses it exactly twice,
        # so the estimator is exact with zero variance.
        basis = build_basis(2, 1)
        report = crofton_length(basis, zonal(basis, np.array([0.0, 0.0, 1.0])), trials=200, seed=6)
        assert report.mean_crossings == 2.0
        assert report.stderr == 0.0
        assert report.length == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_zonal_reference_lengths(self):
        # Independent oracle: bisection roots of P_m (numpy's Legendre series)
        # and circle lengths 2*pi*sin(colatitude).
        for m in (2, 3, 4):
            grid = np.linspace(-1.0, 1.0, 256 * m)
            vals = legval(grid, np.eye(m + 1)[m])
            roots = []
            for lo, hi, flo, fhi in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
                if flo * fhi < 0.0:
                    for _ in range(60):
                        mid = 0.5 * (lo + hi)
                        fm = float(legval(mid, np.eye(m + 1)[m]))
                        if flo * fm <= 0.0:
                            hi = mid
                        else:
                            lo, flo = mid, fm
                    roots.append(0.5 * (lo + hi))
            expected = float(sum(2.0 * math.pi * math.sqrt(1.0 - r**2) for r in roots))
            assert zonal_nodal_length(m) == pytest.approx(expected, rel=1e-10)

            basis = build_basis(2, m)
            report = crofton_length(
                basis, zonal(basis, np.array([0.0, 0.0, 1.0])), trials=600, seed=m
            )
            assert abs(report.length - expected) <= 3.0 * report.stderr

    def test_rotation_invariance_of_length(self):
        basis = build_basis(2, 3)
        rng = np.random.default_rng(14)
        coeffs = rng.standard_normal(7)
        rotation = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        plain = crofton_length(basis, coeffs, trials=500, seed=15)
        turned = crofton_length(
            basis, rotate_coefficients(basis, coeffs, rotation), trials=500, seed=16
        )
        spread = math.hypot(plain.stderr, turned.stderr)
        assert abs(plain.length - turned.length) <= 4.0 * spread

    def test_stderr_scaling_with_trials(self):
        basis = build_basis(2, 3)
        rng = np.random.default_rng(17)
        coeffs = rng.standard_normal(7)
        ratios = []
        for k in range(12):
            small = crofton_length(basis, coeffs, trials=100, seed=100 + k)
            large = crofton_length(basis, coeffs, trials=200, seed=500 + k)
            ratios.append(large.stderr / small.stderr)
        mean_ratio = float(np.mean(ratios))
        assert 1.0 / math.sqrt(2.0) - 0.15 <= mean_ratio <= 1.0 / math.sqrt(2.0) + 0.15

    def test_huge_coefficients_give_the_same_report(self):
        # |c| overflows above about 1e154; the estimate must not see it.
        basis = build_basis(2, 4)
        coeffs = np.random.default_rng(20).standard_normal(9)
        report = crofton_length(basis, coeffs, trials=40, seed=3)
        assert report.degenerate_resamples == 0
        assert crofton_length(basis, 1e200 * coeffs, trials=40, seed=3) == report

    def test_zero_function_rejected(self):
        basis = build_basis(2, 2)
        with pytest.raises(SphereInputError):
            crofton_length(basis, np.zeros(5), trials=10)

    def test_batched_counts_match_single_circles(self, monkeypatch):
        # 150 circles at m = 3 fit one batch of 2048; then 7 circles per batch.
        basis = build_basis(2, 3)
        coeffs = np.random.default_rng(19).standard_normal(7)
        seed, trials = 21, 150
        rngs = [np.random.default_rng([seed, t, 0]) for t in range(trials)]
        frames = [circle_frames(rng.standard_normal((1, 2, 3))) for rng in rngs]
        single = [restrict_to_great_circle(basis, coeffs, f)[1][0] for f in frames]
        report = crofton_length(basis, coeffs, trials=trials, seed=seed)
        assert report.mean_crossings == sum(single) / trials
        assert report.degenerate_resamples == 0
        monkeypatch.setattr(integralgeom, "CIRCLE_CHUNK_POINTS", 7 * 4)   # 7 circles per batch
        assert crofton_length(basis, coeffs, trials=trials, seed=seed) == report

    def test_degenerate_circle_in_a_batch(self):
        # z vanishes on the whole equator; the other circles must get the
        # roots they get alone, to the bit.
        basis = build_basis(2, 1)
        coeffs = zonal(basis, np.array([0.0, 0.0, 1.0]))
        rng = np.random.default_rng(22)
        frames = circle_frames(rng.standard_normal((9, 2, 3)))
        frames[4] = EQUATOR
        roots, counts, degenerate = restrict_to_great_circle(basis, coeffs, frames)
        assert degenerate.tolist() == [k == 4 for k in range(9)]
        assert counts[4] == 0
        per_circle = np.split(roots, np.cumsum(counts)[:-1])
        for k in range(9):
            if k != 4:
                alone, _, _ = restrict_to_great_circle(basis, coeffs, frames[k][None])
                assert np.array_equal(per_circle[k], alone)

    def test_degenerate_circles_are_redrawn(self, monkeypatch):
        # The odd zonal function of degree 3 vanishes on the equator.  The
        # ten circles form one batch, drawn in trial order, so draws 2, 5
        # and 7 of the first call are the first draws of trials 2, 5 and 7.
        basis = build_basis(2, 3)
        coeffs = zonal(basis, np.array([0.0, 0.0, 1.0]))
        draws = []

        def frames_or_equator(gaussians):
            frames = circle_frames(gaussians)
            if not draws:
                frames[[2, 5, 7]] = EQUATOR
            draws.extend(gaussians)
            return frames

        monkeypatch.setattr(integralgeom, "circle_frames", frames_or_equator)
        report = crofton_length(basis, coeffs, trials=10, seed=23)
        assert len(draws) == 13
        assert report.degenerate_resamples == 3
        rngs = [np.random.default_rng([23, t, int(t in (2, 5, 7))]) for t in range(10)]
        frames = circle_frames(np.stack([rng.standard_normal((2, 3)) for rng in rngs]))
        _, counts, degenerate = restrict_to_great_circle(basis, coeffs, frames)
        assert not degenerate.any()
        assert report.mean_crossings == counts.sum() / 10

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 40))
    def test_random_frames_are_orthonormal(self, seed, k):
        # Each frame is orthonormal and spans the plane of its two Gaussian
        # rows: each row equals its projection onto the frame.
        gaussians = np.random.default_rng(seed).standard_normal((k, 2, 3))
        frames = circle_frames(gaussians)
        assert frames.shape == (k, 2, 3)
        gram = np.einsum("kij,klj->kil", frames, frames)
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12
        projected = np.einsum("kij,klj,klm->kim", gaussians, frames, frames)
        scale = np.max(np.abs(gaussians), axis=(1, 2))
        assert np.all(np.max(np.abs(projected - gaussians), axis=(1, 2)) <= 1e-12 * scale)


class TestZonalPairDemo:
    def test_degree1_small_tilt(self):
        result = zonal_pair_demo(1, 0.1)
        assert result.count == 2
        assert result.status is SolverStatus.COMPLETE

    def test_degree4_small_tilt(self):
        result = zonal_pair_demo(4, 0.05)
        assert result.count == 8

    def test_zero_tilt_degenerate(self):
        result = zonal_pair_demo(2, 0.0)
        assert result.status is SolverStatus.DEGENERATE
        assert result.count == 0

    def test_threshold_definition(self):
        # Quarter of the smallest gap in the colatitude ladder, poles included.
        for m in (1, 2, 5, 8):
            colat = zonal_nodal_colatitudes(m)
            gaps = np.diff(np.concatenate([[0.0], colat, [math.pi]]))
            assert zonal_tilt_threshold(m) == pytest.approx(float(gaps.min()) / 4.0, rel=1e-12)
        assert zonal_tilt_threshold(1) == pytest.approx(math.pi / 8.0, rel=1e-12)

    def test_rejects_bad_angles(self):
        with pytest.raises(SphereInputError):
            zonal_pair_demo(2, -0.5)
        with pytest.raises(SphereInputError):
            zonal_pair_demo(0, 0.1)

    def test_rejects_a_bool_tilt(self):
        # True == 1 would pass as a tilt of 1 rad.
        with pytest.raises(SphereInputError, match="tilt angle"):
            zonal_pair_demo(3, True)

    @pytest.mark.parametrize("alpha", [0.0, 0.05, 4.0])
    def test_rejects_degree_past_solver_cap(self, alpha):
        # alpha = 0 gives two equal rows and 4 is no tilt; the cap is checked
        # before the tilt and the rank checks.
        with pytest.raises(SphereInputError, match="S2 zero finding supports degrees up to 12"):
            zonal_pair_demo(13, alpha)


_S1, _S2 = build_basis(1, 2), build_basis(2, 2)
_ESTIMATORS = {
    "average": lambda trials, seed: average_zero_count([_S1], trials, seed),
    "mixed": lambda trials, seed: conjecture_mixed_average([_S2, build_basis(2, 3)], trials, seed),
    "crofton": lambda trials, seed: crofton_length(_S2, np.ones(5), trials, seed),
}


@pytest.mark.parametrize("estimator", sorted(_ESTIMATORS))
@pytest.mark.parametrize(
    "trials, seed, name",
    [(True, 0, "trials"), (2.5, 0, "trials"), (2, -1, "seed"), (2, 1.5, "seed")],
    ids=["trials-True", "trials-2.5", "seed-minus-1", "seed-1.5"],
)
def test_trials_and_seed_must_be_counts(monkeypatch, estimator, trials, seed, name):
    # True == 1 would run one trial; 2.5 and 1.5 would fail in numpy, and so would -1.
    # The driver checks both before its first draw, so no kernel runs.
    def no_evaluation(*args, **kwargs):
        raise AssertionError("a kernel ran")

    for kernel in ("_eval_s1", "_eval_s2"):
        monkeypatch.setattr(harmonics, kernel, no_evaluation)
    monkeypatch.setattr(integralgeom, "sample_subspace", no_evaluation)
    with pytest.raises(SphereInputError, match=f"{name} must be an integer"):
        _ESTIMATORS[estimator](trials, seed)


@pytest.mark.parametrize(
    "call", [zonal_tilt_threshold, zonal_nodal_length, sphere_surface_area], ids=lambda f: f.__name__
)
def test_bool_degree_or_dimension_is_rejected(call):
    # True == 1 would otherwise give the m = 1 or k = 1 value.
    with pytest.raises(SphereInputError, match="must be an integer"):
        call(True)
