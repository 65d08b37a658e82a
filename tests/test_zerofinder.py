"""Zero enumeration on S1/S2, count ceilings, and circle restrictions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere_zeros import (
    DegenerateRestrictionError,
    RankDeficientError,
    SolverStatus,
    SphereInputError,
    average_zero_count,
    build_basis,
    eval_basis_many,
    find_common_zeros_s1,
    find_common_zeros_s2,
    make_sample,
    restrict_to_great_circle,
    verify_bezout,
    zonal,
)
from sphere_zeros.harmonics import check_coefficients, random_sphere_points, rotate_coefficients
from sphere_zeros.zerofinder import MAX_BASE_DEPTH, ZeroFindingResult, check_depth


def gaussian_sample(degrees, rng):
    """Gaussian coefficient rows for S2 bases of the given degrees."""
    rows = [rng.standard_normal(2 * m + 1) for m in degrees]
    return make_sample(rows, degrees)


def circle_sample(degree, rng):
    return make_sample([rng.standard_normal(2)], [degree])


def geodesic(x, y) -> float:
    # arcsin of the half chord is accurate near zero, unlike arccos of the dot.
    return float(2.0 * np.arcsin(min(np.linalg.norm(np.asarray(x) - y), 2.0) / 2.0))


class TestSubspaceSample:
    def test_full_rank_accepted(self):
        sample = make_sample([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1, 1])
        assert sample.rows.shape == (2, 3)

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficientError):
            make_sample([[1.0, 2.0, 0.0], [0.5, 1.0, 0.0]], [1, 1])

    def test_mixed_degrees_use_orthogonality(self):
        # Padded rows look parallel, but the functions live in orthogonal
        # eigenspaces, so the sample is full rank.
        sample = make_sample([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0]], [1, 2])
        assert sample.source_degrees == (1, 2)

    def test_zero_row_rejected(self):
        with pytest.raises(RankDeficientError):
            make_sample([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [1, 1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200])
    def test_non_finite_rows_rejected(self, bad):
        # 1e200 is finite, but its squared norm overflows the rank check.
        with pytest.raises(SphereInputError):
            make_sample([[bad] * 7, [1.0] * 7], [3, 3])


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


class TestInputChecks:
    """The solver's one setting is the base mesh depth: None or an integer in [1, 7]."""

    @pytest.mark.parametrize("depth", [0, 8, 2.5], ids=lambda d: f"depth-{d}")
    def test_solver_config_rejects(self, depth):
        basis = build_basis(2, 1)
        sample = make_sample([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [1, 1])
        with pytest.raises(SphereInputError, match=r"depth must be an integer in \[1, 7\]"):
            find_common_zeros_s2([basis, basis], sample, depth)
        # S1 averages never mesh, and still reject the setting.
        with pytest.raises(SphereInputError, match="depth"):
            average_zero_count([build_basis(1, 3)], 1, depth)

    def test_solver_config_bounds_accepted(self):
        for depth in (None, 1, MAX_BASE_DEPTH):
            check_depth(depth)
        basis = build_basis(2, 1)
        sample = make_sample([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [1, 1])
        assert find_common_zeros_s2([basis, basis], sample, 1).count == 2

    @settings(max_examples=50, deadline=None)
    @given(depth=st.one_of(st.none(), st.integers(-2, 12), ANY_FLOAT))
    def test_solver_config_fuzz(self, depth):
        valid = depth is None or (isinstance(depth, int) and 1 <= depth <= MAX_BASE_DEPTH)
        try:
            check_depth(depth)
        except SphereInputError:
            assert not valid
        else:
            assert valid

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.one_of(ANY_FLOAT, st.floats(-10.0, 10.0)), min_size=14, max_size=14))
    def test_coefficient_rows_fuzz(self, values):
        basis = build_basis(2, 3)
        for row in (values[:7], values[7:]):
            try:
                assert np.isfinite(check_coefficients(basis, row)).all()
            except SphereInputError:
                pass
        try:
            sample = make_sample([values[:7], values[7:]], [3, 3])
        except (SphereInputError, RankDeficientError):
            return
        assert np.isfinite(sample.rows).all()
        assert np.isfinite(sample.function_gram()).all()


class TestCircleZeros:
    def test_pure_cosine_degree4(self):
        basis = build_basis(1, 4)
        result = find_common_zeros_s1(basis, make_sample([[1.0, 0.0]], [4]))
        assert result.count == 8
        assert result.status is SolverStatus.COMPLETE
        angles = np.sort(np.arctan2(result.zeros[:, 1], result.zeros[:, 0]) % (2 * math.pi))
        expected = math.pi / 8.0 + np.arange(8) * math.pi / 4.0
        assert np.max(np.abs(angles - expected)) < 1e-12

    def test_generic_degree7_has_14_zeros(self):
        basis = build_basis(1, 7)
        rng = np.random.default_rng(0)
        for _ in range(20):
            result = find_common_zeros_s1(basis, circle_sample(7, rng))
            assert result.count == 14
            assert result.max_residual < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 5, 13, 29, 50])
    def test_count_matches_closed_form_average(self, m):
        # (2/sigma_1) * sqrt(lam) * vol(S1) = 2m, attained by every sample.
        basis = build_basis(1, m)
        theory = 2.0 / (2.0 * math.pi) * math.sqrt(basis.eigenvalue) * (2.0 * math.pi)
        assert theory == pytest.approx(2 * m)
        rng = np.random.default_rng(m)
        result = find_common_zeros_s1(basis, circle_sample(m, rng))
        assert result.count == 2 * m

    def test_zero_vector_rejected(self):
        with pytest.raises(RankDeficientError):
            find_common_zeros_s1(build_basis(1, 3), make_sample([[0.0, 0.0]], [3]))


class TestSphereZeros:
    def test_two_coordinate_functions_meet_at_poles(self):
        basis = build_basis(2, 1)
        sample = make_sample([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [1, 1])
        result = find_common_zeros_s2([basis, basis], sample)
        assert result.status is SolverStatus.COMPLETE
        assert result.count == 2
        zs = result.zeros[np.argsort(result.zeros[:, 2])]
        assert np.max(np.abs(zs - np.array([[0, 0, -1.0], [0, 0, 1.0]]))) < 1e-9

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_zonal_pair_counts(self, m):
        from sphere_zeros.integralgeom import zonal_tilt_threshold

        basis = build_basis(2, m)
        alpha = zonal_tilt_threshold(m) / 2.0
        tilted_axis = np.array([math.sin(alpha), 0.0, math.cos(alpha)])
        sample = make_sample(
            [zonal(basis, np.array([0.0, 0.0, 1.0])), zonal(basis, tilted_axis)], [m, m]
        )
        result = find_common_zeros_s2([basis, basis], sample)
        assert result.count == 2 * m
        assert result.status is SolverStatus.COMPLETE

    def test_random_degree3_statistics(self):
        basis = build_basis(2, 3)
        rng = np.random.default_rng(42)
        counts = []
        for _ in range(200):
            result = find_common_zeros_s2([basis, basis], gaussian_sample([3, 3], rng))
            assert result.count <= 18       # 2 * 3 * 3, always
            counts.append(result.count)
        counts = np.asarray(counts, dtype=float)
        stderr = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - 12.0) <= 4.0 * stderr

    def test_soundness_residuals(self):
        rng = np.random.default_rng(1)
        for m in (2, 4):
            basis = build_basis(2, m)
            scale = math.sqrt(basis.gradient_sum_constant)
            for _ in range(10):
                result = find_common_zeros_s2([basis, basis], gaussian_sample([m, m], rng))
                if result.count:
                    assert result.max_residual <= 1e-9 * scale

    @pytest.mark.parametrize("m", [2, 4])
    def test_antipodal_symmetry_for_even_degrees(self, m):
        basis = build_basis(2, m)
        rng = np.random.default_rng(m * 11)
        for _ in range(10):
            result = find_common_zeros_s2([basis, basis], gaussian_sample([m, m], rng))
            assert result.count % 2 == 0
            for z in result.zeros:
                nearest = min(geodesic(-z, w) for w in result.zeros)
                assert nearest < 1e-6

    @settings(max_examples=25, deadline=None)
    @given(m1=st.integers(1, 4), m2=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_zero_set_is_even_bounded_and_antipodal(self, m1, m2, seed):
        # u(-x) = (-1)^m u(x) for every degree m, so Z(u1, u2) = -Z(u1, u2).
        bases = [build_basis(2, m1), build_basis(2, m2)]
        sample = gaussian_sample([m1, m2], np.random.default_rng(seed))
        result = find_common_zeros_s2(bases, sample)
        if result.status is SolverStatus.DEGENERATE:
            return
        assert result.count % 2 == 0
        assert result.count <= 2 * m1 * m2
        for z in result.zeros:
            assert min(geodesic(-z, w) for w in result.zeros) < 1e-6

    def test_depth_stability_of_complete_results(self):
        basis = build_basis(2, 3)
        rng = np.random.default_rng(17)
        sample = gaussian_sample([3, 3], rng)
        base = find_common_zeros_s2([basis, basis], sample)
        assert base.status is SolverStatus.COMPLETE
        deeper = find_common_zeros_s2([basis, basis], sample, depth=6)
        assert deeper.count == base.count

    def test_rotation_equivariance_of_zero_set(self):
        basis = build_basis(2, 3)
        rng = np.random.default_rng(23)
        sample = gaussian_sample([3, 3], rng)
        rotation = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        rotated_sample = make_sample(
            [rotate_coefficients(basis, row, rotation) for row in sample.rows], [3, 3]
        )
        base = find_common_zeros_s2([basis, basis], sample)
        rotated = find_common_zeros_s2([basis, basis], rotated_sample)
        assert rotated.count == base.count
        # zeros of u(R^T x) are R * (zeros of u)
        mapped = base.zeros @ rotation.T
        for z in mapped:
            assert min(geodesic(z, w) for w in rotated.zeros) < 1e-8

    def test_shared_nodal_circle_is_degenerate(self):
        # x and x*z vanish together on the whole great circle x = 0.
        b1, b2 = build_basis(2, 1), build_basis(2, 2)
        sample = make_sample([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0]], [1, 2])
        # Confirm the second row is the x*z profile before relying on it.
        pts = random_sphere_points(2, 10, np.random.default_rng(2))
        vals = eval_basis_many(b2, pts) @ np.array(sample.rows[1, :5])
        ratio = vals / (pts[:, 0] * pts[:, 2])
        assert np.max(np.abs(ratio - ratio[0])) < 1e-10
        result = find_common_zeros_s2([b1, b2], sample)
        assert result.status is SolverStatus.DEGENERATE
        assert math.isnan(result.max_residual)

    def test_mismatched_degrees_rejected(self):
        basis = build_basis(2, 2)
        sample = make_sample([[1, 0, 0], [0, 1, 0]], [1, 1])
        with pytest.raises(Exception):
            find_common_zeros_s2([basis, basis], sample)


class TestBezout:
    def test_bound_values(self):
        basis = build_basis(2, 1)
        sample = make_sample([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [1, 1])
        result = find_common_zeros_s2([basis, basis], sample)
        assert result.bezout_bound == 2
        assert verify_bezout(result)      # bound attained: 2 <= 2

    def test_zonal_pair_well_below_bound(self):
        from sphere_zeros.integralgeom import zonal_pair_demo, zonal_tilt_threshold

        result = zonal_pair_demo(5, zonal_tilt_threshold(5) / 2.0)
        assert result.count == 10
        assert result.bezout_bound == 50
        assert verify_bezout(result)

    def test_overcount_detected(self):
        overfull = ZeroFindingResult(
            zeros=np.zeros((9, 3)),
            status=SolverStatus.COMPLETE,
            max_residual=0.0,
            bezout_bound=8,
        )
        assert not verify_bezout(overfull)

    def test_degenerate_rejected(self):
        degenerate = ZeroFindingResult(
            zeros=np.empty((0, 3)),
            status=SolverStatus.DEGENERATE,
            max_residual=math.nan,
            bezout_bound=8,
        )
        with pytest.raises(ValueError):
            verify_bezout(degenerate)

    def test_random_samples_never_violate(self):
        rng = np.random.default_rng(5)
        for m1, m2 in [(1, 2), (2, 2), (3, 2), (4, 1)]:
            bases = [build_basis(2, m1), build_basis(2, m2)]
            for _ in range(25):
                result = find_common_zeros_s2(bases, gaussian_sample([m1, m2], rng))
                if result.status is not SolverStatus.DEGENERATE:
                    assert verify_bezout(result)


class TestCircleRestriction:
    EQUATOR = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    MERIDIAN = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])

    def test_z_on_equator_degenerate(self):
        basis = build_basis(2, 1)
        with pytest.raises(DegenerateRestrictionError):
            restrict_to_great_circle(basis, [1.0, 0.0, 0.0], self.EQUATOR)

    def test_z_on_meridian_two_roots(self):
        basis = build_basis(2, 1)
        restriction = restrict_to_great_circle(basis, [1.0, 0.0, 0.0], self.MERIDIAN)
        assert restriction.count == 2
        # u along the meridian is proportional to sin t: roots at 0 and pi.
        assert np.max(np.abs(restriction.root_angles - np.array([0.0, math.pi]))) < 1e-10

    def test_roots_are_roots(self):
        basis = build_basis(2, 4)
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(9)
        restriction = restrict_to_great_circle(basis, coeffs, self.MERIDIAN)
        assert np.max(np.abs(restriction.values(restriction.root_angles))) < 1e-10

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_count_against_brute_force_scan(self, m):
        # Oracle: dense sign scan at 64m points along the same circle.
        basis = build_basis(2, m)
        rng = np.random.default_rng(m * 3 + 1)
        for _ in range(10):
            coeffs = rng.standard_normal(2 * m + 1)
            raw = rng.standard_normal((2, 3))
            e1 = raw[0] / np.linalg.norm(raw[0])
            v2 = raw[1] - np.dot(raw[1], e1) * e1
            frame = np.stack([e1, v2 / np.linalg.norm(v2)])
            restriction = restrict_to_great_circle(basis, coeffs, frame)
            assert restriction.count <= 2 * m
            t = 2.0 * math.pi * np.arange(64 * m) / (64 * m)
            pts = np.outer(np.cos(t), frame[0]) + np.outer(np.sin(t), frame[1])
            vals = eval_basis_many(basis, pts) @ coeffs
            sign_flips = int(np.sum(np.sign(vals) != np.sign(np.roll(vals, -1))))
            assert restriction.count == sign_flips

    def test_rejects_bad_frame(self):
        basis = build_basis(2, 2)
        with pytest.raises(Exception):
            restrict_to_great_circle(basis, np.ones(5), np.array([[1.0, 0, 0], [1.0, 0, 0]]))
