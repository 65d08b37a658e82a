"""Zero enumeration on S1/S2, count ceilings, and circle restrictions."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere_zeros import (
    RankDeficientError,
    SolverStatus,
    SphereInputError,
    SubspaceSample,
    build_basis,
    eval_basis_many,
    find_common_zeros_s1,
    find_common_zeros_s2,
    make_sample,
    restrict_to_great_circle,
    verify_bezout,
    zonal,
)
from sphere_zeros import zerofinder
from sphere_zeros.cli import main
from sphere_zeros.harmonics import (
    MAX_DEGREE,
    check_coefficients,
    eval_basis_and_gradient_many,
    random_sphere_points,
)
from sphere_zeros.icosphere import face_geometry, icosphere
from sphere_zeros.integralgeom import (
    circle_frames,
    sample_subspace,
    zonal_pair_demo,
    zonal_tilt_threshold,
)
from sphere_zeros.zerofinder import (
    UNIT_CIRCLE_TOL,
    ZeroFindingResult,
    _circle_eigenvalues,
)

from oracles import rotate_coefficients, tangent_frames, tesseral_zonal_rows, whole_icosphere

NORTH = np.array([0.0, 0.0, 1.0])
FROZEN_OUTCOMES = Path(__file__).parent / "data" / "solver" / "s2_outcomes.json"
FROZEN_CIRCLE_COUNTS = Path(__file__).parent / "data" / "circles" / "counts.json"


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

    def test_a_sample_without_rows_rejected(self):
        # Both constructors run the one check in SubspaceSample.
        with pytest.raises(SphereInputError, match="at least one row"):
            SubspaceSample(rows=np.empty((0, 3)), source_degrees=())
        with pytest.raises(SphereInputError, match="at least one row"):
            make_sample([], [])

    # A truncated 3.7 made a degree-3 sample, on which the S1 solver reported 6 zeros.
    @pytest.mark.parametrize(
        "degree", [3.7, True, np.float64(3.0), 0, MAX_DEGREE + 1],
        ids=["3.7", "True", "float64-3", "0", "51"],
    )
    def test_non_integer_or_out_of_range_degree_rejected(self, degree):
        # Both constructors run the one check in SubspaceSample.
        with pytest.raises(SphereInputError, match="degree must be an integer"):
            make_sample([[1.0, 0.0]], [degree])
        with pytest.raises(SphereInputError, match="degree must be an integer"):
            SubspaceSample(rows=np.array([[1.0, 0.0]]), source_degrees=(degree,))

    def test_numpy_integer_degree_accepted(self):
        sample = make_sample([[1.0, 0.0]], [np.int64(3)])
        assert sample.source_degrees == (3,)
        assert type(sample.source_degrees[0]) is int

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rows_rejected(self, bad):
        with pytest.raises(SphereInputError):
            make_sample([[bad] * 7, [1.0] * 7], [3, 3])

    @pytest.mark.parametrize("scale", [1e-170, 1e160, 1e200])
    def test_rank_check_is_scale_free(self, scale):
        # Squared norms of these rows underflow (1e-170) or overflow (1e160,
        # 1e200); scaling a row moves neither its zeros nor its rank.
        rows = np.random.default_rng(0).standard_normal((2, 7))
        assert make_sample(rows * scale, [3, 3]).rows.shape == (2, 7)
        assert make_sample([rows[0] * scale, rows[1]], [3, 3]).rows.shape == (2, 7)
        with pytest.raises(RankDeficientError):
            make_sample([rows[0] * scale, 2.0 * rows[0]], [3, 3])
        with pytest.raises(RankDeficientError):
            make_sample([rows[0] * scale, np.zeros(7)], [3, 3])

    @pytest.mark.parametrize("scale", [1e-170, 1e160])
    def test_scaled_rows_give_the_same_zeros(self, scale):
        basis = build_basis(2, 3)
        rows = np.random.default_rng(0).standard_normal((2, 7))
        plain = find_common_zeros_s2([basis, basis], make_sample(rows, [3, 3]))
        scaled = find_common_zeros_s2([basis, basis], make_sample(rows * scale, [3, 3]))
        assert plain.status is scaled.status is SolverStatus.COMPLETE
        assert plain.count == scaled.count > 0
        assert np.max(np.abs(plain.zeros - scaled.zeros)) < 1e-12


def _ref_function_gram(rows, source_degrees):
    """L2 Gram matrix of the row functions scaled to unit norm.

    The Gram form of the rank check, kept verbatim (``self`` read as its two
    fields) as the reference for the singular-value rule.
    """
    rows = zerofinder._unit_rows(rows)
    n = rows.shape[0]
    gram = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            if source_degrees[i] == source_degrees[j]:
                gram[i, j] = gram[j, i] = float(np.dot(rows[i], rows[j]))
    return gram


def _ref_rank_check(rows, source_degrees):
    """The Gram form's decision (True accepts) and its singular value ratio."""
    eigs = np.linalg.eigvalsh(_ref_function_gram(rows, source_degrees))
    accepted = not eigs[0] <= (zerofinder.RANK_TOLERANCE**2) * eigs[-1]
    return accepted, math.sqrt(max(eigs[0], 0.0) / eigs[-1])


def _check_frame(sample):
    """Orthonormal per repeated degree and spanning the unit rows; a lone degree keeps its unit row."""
    unit = zerofinder._unit_rows(sample.rows)
    degrees = sample.source_degrees
    for degree in set(degrees):
        idx = [i for i, d in enumerate(degrees) if d == degree]
        frame = sample.frame[idx]
        if len(idx) == 1:
            assert np.array_equal(frame, unit[idx])
            continue
        assert np.max(np.abs(frame @ frame.T - np.eye(len(idx)))) <= 1e-14
        projected = (unit[idx] @ frame.T) @ frame
        assert np.max(np.abs(projected - unit[idx])) <= 1e-14


RANK_DEGREES = [(m, m) for m in range(1, 9)]
RANK_DEGREES += [(1, 2), (3, 3, 5), (2, 2, 4, 4), (2, 2, 2), (1, 1, 1)]


class TestRankRule:
    """The singular values of the unit rows against the Gram eigenvalue form they replace."""

    @settings(max_examples=150)
    @given(
        degrees=st.sampled_from(RANK_DEGREES),
        seed=st.integers(0, 2**32 - 1),
        eps=st.sampled_from([1.0, 1e-2, 1e-4, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-12]),
        scales=st.lists(st.sampled_from([1.0, 1e-170, 1e160]), min_size=4, max_size=4),
    )
    def test_decision_matches_the_gram_form(self, degrees, seed, eps, scales):
        # Each repeated row is the first row of its degree plus eps times a
        # Gaussian row, so the ratio runs from O(1) down past the tolerance.
        rng = np.random.default_rng(seed)
        first = {}
        rows = []
        for d in degrees:
            row = rng.standard_normal(2 * d + 1)
            rows.append(row if d not in first else first[d] + eps * row)
            first.setdefault(d, row)
        sample_rows = np.zeros((len(degrees), 2 * max(degrees) + 1))
        for i, (row, scale) in enumerate(zip(rows, scales)):
            sample_rows[i, : row.size] = row * scale
        try:
            sample = make_sample(sample_rows, degrees)
        except RankDeficientError:
            sample = None
        reference, ratio = _ref_rank_check(sample_rows, degrees)
        if ratio >= 1e-6:
            assert (sample is not None) == reference
        if eps <= 1e-10 and len(set(degrees)) < len(degrees):
            assert sample is None
        if sample is not None:
            _check_frame(sample)

    def test_exactly_deficient_rows_are_always_rejected(self):
        # The Gram form accepts some of these: its smallest eigenvalue is a
        # rounding error of a squared singular value.  A plain SVD of more
        # rows than entries would raise ValueError, not RankDeficientError.
        cases = []
        for m in range(1, 9):
            rng = np.random.default_rng([m, 41])
            for _ in range(200):
                u = rng.standard_normal(2 * m + 1)
                c = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)
                cases.append(([u, c * u], [m, m]))
        rng = np.random.default_rng(43)
        for _ in range(200):
            cases.append((rng.standard_normal((4, 3)), [1] * 4))
            cases.append((rng.standard_normal((3, 2)) @ rng.standard_normal((2, 5)), [2] * 3))
        for rows, degrees in cases:
            with pytest.raises(RankDeficientError):
                make_sample(rows, degrees)


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


class TestInputChecks:
    def test_solver_config_bounds_accepted(self, monkeypatch):
        # The shallowest mesh (depth 1, 80 faces) still finds both poles.
        monkeypatch.setattr(zerofinder, "default_mesh_depth", lambda max_degree: 1)
        basis = build_basis(2, 1)
        sample = make_sample([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [1, 1])
        assert find_common_zeros_s2([basis, basis], sample).count == 2

    def test_one_solve_checks_its_bases_and_rows_once(self, monkeypatch):
        # The pencil counts the sample the solver has checked, with no second check.
        calls = {"_check_s2_bases": 0, "_check_s2_rows": 0}
        for name in calls:
            def counted(*args, _fn=getattr(zerofinder, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(zerofinder, name, counted)
        basis = build_basis(2, 3)
        sample = gaussian_sample([3, 3], np.random.default_rng(5))
        assert find_common_zeros_s2([basis, basis], sample).status is SolverStatus.COMPLETE
        assert calls == {"_check_s2_bases": 1, "_check_s2_rows": 1}

    @settings(max_examples=50)
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
        assert np.isfinite(sample.frame).all()


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

    def test_sample_degree_must_match_the_basis(self):
        # A degree-5 sample would otherwise get the 6 zeros of the degree-3 basis.
        with pytest.raises(SphereInputError, match="sample degree does not match"):
            find_common_zeros_s1(build_basis(1, 3), make_sample([[1.0, 0.0]], [5]))


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

    @settings(max_examples=25)
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

    @settings(max_examples=25)
    @given(m1=st.integers(1, 4), m2=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_count_is_rotation_invariant(self, m1, m2, seed):
        # A rotation carries zeros across the seam between the searched half
        # of the mesh and the mirrored half.
        bases = [build_basis(2, m1), build_basis(2, m2)]
        rng = np.random.default_rng(seed)
        sample = gaussian_sample([m1, m2], rng)
        rotation = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        rotated_rows = [
            rotate_coefficients(b, row[: b.dimension], rotation)
            for b, row in zip(bases, sample.rows)
        ]
        rotated_sample = make_sample(rotated_rows, [m1, m2])
        base = find_common_zeros_s2(bases, sample)
        rotated = find_common_zeros_s2(bases, rotated_sample)
        degenerate = SolverStatus.DEGENERATE
        assert (rotated.status is degenerate) == (base.status is degenerate)
        assert rotated.count == base.count

    def test_depth_stability_of_complete_results(self, monkeypatch):
        basis = build_basis(2, 3)
        rng = np.random.default_rng(17)
        sample = gaussian_sample([3, 3], rng)
        base = find_common_zeros_s2([basis, basis], sample)
        assert base.status is SolverStatus.COMPLETE
        monkeypatch.setattr(zerofinder, "default_mesh_depth", lambda max_degree: 6)
        deeper = find_common_zeros_s2([basis, basis], sample)
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

    @pytest.mark.parametrize("m1, m2", [(1, 3), (3, 5), (1, 5)])
    def test_coaxial_odd_zonal_pair_is_degenerate(self, m1, m2, monkeypatch):
        # Odd zonal functions about one axis share the equator, where Newton's
        # Jacobian is singular, so the mesh would find no zero.  The pencil's
        # resultant vanishes identically at its first center, so the pair is
        # declined and the mesh does not run.
        bases = [build_basis(2, m1), build_basis(2, m2)]
        sample = make_sample([zonal(b, NORTH) for b in bases], [m1, m2])
        monkeypatch.setattr(zerofinder, "_mesh_zeros", None)
        result = find_common_zeros_s2(bases, sample)
        assert result.status is SolverStatus.DEGENERATE
        assert (result.depth_used, result.escalations) == (zerofinder.default_mesh_depth(m2), 0)
        assert math.isnan(result.max_residual)

    @pytest.mark.parametrize("seed", range(5))
    def test_a_rotated_shared_nodal_circle_is_degenerate(self, seed, monkeypatch):
        # x and x*z share the great circle x = 0 in any position; the pencil
        # declines the pair wherever the circle lies, and the mesh does not run.
        bases = [build_basis(2, 1), build_basis(2, 2)]
        rotation = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))[0]
        rows = [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0]]
        sample = make_sample(
            [rotate_coefficients(b, row, rotation) for b, row in zip(bases, rows)], [1, 2]
        )
        monkeypatch.setattr(zerofinder, "_mesh_zeros", None)
        result = find_common_zeros_s2(bases, sample)
        assert result.status is SolverStatus.DEGENERATE
        assert result.zeros.shape == (0, 3)

    @pytest.mark.parametrize("m", range(6, 13))
    def test_gaussian_pairs_up_to_the_degree_cap_are_complete(self, m):
        # Criterion 3 draws degrees <= 5; past them the mesh at its one depth
        # still finds every zero the pencil counts.
        basis = build_basis(2, m)
        for seed in range(2):
            sample = gaussian_sample([m, m], np.random.default_rng([m, seed]))
            result = find_common_zeros_s2([basis, basis], sample)
            assert result.status is SolverStatus.COMPLETE
            assert result.depth_used == zerofinder.default_mesh_depth(m)
            assert result.count == zerofinder.pencil_count([basis, basis], sample)[0]
            assert 0 < result.count <= 2 * m * m and result.count % 2 == 0
            assert result.max_residual <= 1e-9
            gap = np.linalg.norm(result.zeros[:, None, :] + result.zeros[None, :, :], axis=2)
            assert gap.min(axis=1).max() < 1e-12

    def test_non_transverse_zeros_are_not_complete(self):
        # xz and x^2 - y^2 meet at the poles, where both gradients are
        # parallel (multiplicity 2 each), and at four points of the equator.
        # The pencil counts 8 with multiplicity; Newton cannot converge at
        # the poles, so the mesh finds the four transverse zeros only.
        basis = build_basis(2, 2)
        pts = random_sphere_points(2, 10, np.random.default_rng(4))
        x, y, z = pts.T
        values = eval_basis_many(basis, pts)
        for index, profile in [(1, x * z), (3, x * x - y * y)]:
            ratio = values[:, index] / profile
            assert np.max(np.abs(ratio - ratio[0])) < 1e-12
        sample = make_sample(np.eye(5)[[1, 3]], [2, 2])
        assert zerofinder.pencil_count([basis, basis], sample)[0] == 8
        result = find_common_zeros_s2([basis, basis], sample)
        assert result.status is not SolverStatus.COMPLETE
        assert (result.count, result.status) == (4, SolverStatus.UNCONFIRMED)
        assert np.allclose(np.abs(result.zeros), [math.sqrt(0.5), math.sqrt(0.5), 0.0])

    def test_mismatched_degrees_rejected(self):
        basis = build_basis(2, 2)
        sample = make_sample([[1, 0, 0], [0, 1, 0]], [1, 1])
        with pytest.raises(Exception):
            find_common_zeros_s2([basis, basis], sample)

    def test_bases_are_checked_without_samples(self):
        # The base pair is checked once per call, before any sample.
        assert zerofinder.pencil_counts([build_basis(2, 3)] * 2, []) == []
        for bases in ([build_basis(1, 3)], [build_basis(2, 3)], [build_basis(1, 3)] * 2):
            with pytest.raises(SphereInputError, match="two S2 bases"):
                zerofinder.pencil_counts(bases, [])
        with pytest.raises(SphereInputError, match="degrees up to 12"):
            zerofinder.pencil_counts([build_basis(2, 3), build_basis(2, 13)], [])

    def test_rows_narrower_than_their_basis_rejected(self):
        basis = build_basis(2, 2)
        sample = make_sample([[1, 0, 0], [0, 1, 0]], [2, 2])
        with pytest.raises(SphereInputError, match="5 coefficients"):
            find_common_zeros_s2([basis, basis], sample)

    @pytest.mark.parametrize("second", [[0, 0, 1, 9, 9], [0, 2, 0, 0, 0]], ids=["tail", "padded"])
    def test_entries_past_the_basis_rejected(self, second):
        # The padded case passes the rank check only through the entries past
        # the basis; read as degree-1 rows, the two functions are parallel.
        basis = build_basis(2, 1)
        sample = make_sample([[0, 1, 0, 5, 5], second], [1, 1])
        with pytest.raises(SphereInputError, match="3 coefficients"):
            find_common_zeros_s2([basis, basis], sample)

    def test_frozen_outcomes(self):
        # 84 Gaussian pairs (six per degree pair, drawn by sample_subspace),
        # 15 tilted zonal pairs and one Degenerate pair (x and xz), with the
        # (count, status, depth_used, escalations) the solver gave them when
        # it still checked depths in a loop; depth_used is now the one mesh
        # depth D, where it was D + 1 while a deeper pass confirmed D.
        cases = json.loads(FROZEN_OUTCOMES.read_text())
        assert len(cases) == 100
        outcomes = []
        for case in cases:
            bases = [build_basis(2, m) for m in case["degrees"]]
            r = find_common_zeros_s2(bases, make_sample(case["rows"], case["degrees"]))
            outcomes.append([r.count, r.status.value, r.depth_used, r.escalations])
        assert outcomes == [case["outcome"] for case in cases]


def _same_zeros(a, b, tol):
    """Every zero of each result lies within ``tol`` of a zero of the other."""
    gap = np.linalg.norm(a.zeros[:, None, :] - b.zeros[None, :, :], axis=2)
    return bool(gap.min(axis=1).max() <= tol and gap.min(axis=0).max() <= tol)


class TestCountDependsOnTheSpanAlone:
    """Z(U) depends on the span U of the rows, not on the basis the caller passes."""

    def test_near_parallel_rows_count_the_zeros_of_their_span(self):
        # (u, u + 1e-6 w) spans the U of (u, w) with a basis of condition
        # number ~1e6; solved on those rows as given, 9 of these 40 samples
        # missed zeros, 6 of them with a Complete status.
        for m in range(1, 6):
            basis = build_basis(2, m)
            for i in range(8):
                u, w = sample_subspace([basis, basis], np.random.default_rng([m, m, i, 99])).rows
                truth = find_common_zeros_s2([basis, basis], make_sample([u, w], [m, m]))
                near = find_common_zeros_s2([basis, basis], make_sample([u, u + 1e-6 * w], [m, m]))
                assert (near.count, near.status) == (truth.count, truth.status), (m, i)

    @settings(max_examples=40)
    @given(m=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), log_kappa=st.floats(0.0, 6.0))
    def test_any_basis_of_the_span_gives_the_same_zeros(self, m, seed, log_kappa):
        # rows: an orthonormal basis of a Gaussian U; A @ rows: another basis
        # of U, with A of condition number 10**log_kappa.
        basis = build_basis(2, m)
        rng = np.random.default_rng(seed)
        rows = gaussian_sample([m, m], rng).frame
        turns = [np.linalg.qr(rng.standard_normal((2, 2)))[0] for _ in range(2)]
        mixing = turns[0] @ np.diag([1.0, 10.0**-log_kappa]) @ turns[1]
        base = find_common_zeros_s2([basis, basis], make_sample(rows, [m, m]))
        mixed = find_common_zeros_s2([basis, basis], make_sample(mixing @ rows, [m, m]))
        assert (mixed.count, mixed.status) == (base.count, base.status)
        assert _same_zeros(base, mixed, 1e-9)

    @pytest.mark.parametrize("m", [6, 7, 8])
    def test_tilted_zonal_pairs_have_2m_zeros(self, m):
        # The check of the zonal ops of the mc_high benchmark workload.
        for share in np.linspace(0.35, 0.65, 12):
            result = zonal_pair_demo(m, share * zonal_tilt_threshold(m))
            assert (result.count, result.status) == (2 * m, SolverStatus.COMPLETE), share

    def test_a_tilted_m7_pair_the_pencil_miscounts_is_unconfirmed(self):
        # 0.62 of the tilt threshold: the mesh finds the 14 zeros the theory
        # gives, but the pencil's accepted center counts 8, so the two
        # counters disagree and the result is not Complete.
        result = zonal_pair_demo(7, 0.049627861392012654)
        assert result.status is not SolverStatus.COMPLETE
        assert (result.count, result.status) == (14, SolverStatus.UNCONFIRMED)
        assert verify_bezout(result)


def _first_half(depth):
    """The first half of the depth-d faces, the descendants of icosahedron faces 0-9."""
    return np.arange(10 * 4**depth)


def _antipodal_faces(vertices, faces):
    """Index of the face whose vertices are the exact negations of each face's vertices."""
    n, num_faces = vertices.shape[0], faces.shape[1]
    both = np.concatenate([vertices, -vertices]) + 0.0   # + 0.0 folds -0.0 into 0.0
    keys, inverse = np.unique(both, axis=0, return_inverse=True)
    assert keys.shape[0] == n                   # every negated vertex is a vertex
    vertex_of = np.empty(n, dtype=np.int64)
    vertex_of[inverse[:n]] = np.arange(n)
    negated = vertex_of[inverse[n:]]
    corners = np.sort(np.concatenate([faces.T, negated[faces.T]]), axis=1)
    keys, inverse = np.unique(corners, axis=0, return_inverse=True)
    assert keys.shape[0] == num_faces       # every negated face is a face
    face_of = np.empty(num_faces, dtype=np.int64)
    face_of[inverse[:num_faces]] = np.arange(num_faces)
    return face_of[inverse[num_faces:]]


class TestAntipodalHalves:
    """The solver searches the first half of the faces and mirrors what it finds."""

    @pytest.mark.parametrize("depth", range(7))
    def test_mesh_splits_into_antipodal_halves(self, depth):
        antipode = _antipodal_faces(*whole_icosphere(depth))
        faces = np.arange(antipode.size)
        half = _first_half(depth)
        assert half.size == antipode.size // 2
        assert np.array_equal(antipode[antipode], faces)
        assert np.array_equal(np.sort(antipode[half]), faces[half.size :])

    @pytest.mark.parametrize("degrees", [(1, 1), (2, 5), (8, 12)])
    def test_row_values_are_sign_symmetric_to_the_bit(self, degrees):
        # So the antipode of a point that passes the residual filter passes it too.
        bases = [build_basis(2, m) for m in degrees]
        rows = gaussian_sample(degrees, np.random.default_rng(list(degrees))).rows
        pts = random_sphere_points(2, 500, np.random.default_rng(0))
        groups = zerofinder._degree_groups(bases)
        values = zerofinder._row_values(groups, rows, pts)
        assert np.array_equal(np.abs(zerofinder._row_values(groups, rows, -pts)), np.abs(values))

    @pytest.mark.parametrize(
        "degrees, samples",
        [((1, 1), 4), ((2, 5), 3), ((3, 3), 4), ((5, 5), 2), ((8, 8), 1)],
        ids=["1x1", "2x5", "3x3", "5x5", "8x8"],
    )
    def test_the_mirrored_half_gives_the_zeros_of_the_whole_mesh(self, degrees, samples):
        # Newton from the kept faces of the whole mesh, with no mirror, finds
        # the zeros that the first half and their antipodes give.
        depth = zerofinder.default_mesh_depth(max(degrees))
        mesh = icosphere(depth)
        bezout = 2 * degrees[0] * degrees[1]
        rng = np.random.default_rng([*degrees, 7])
        for _ in range(samples):
            _, rows, groups, lipschitz = _sweep_inputs(degrees, rng)
            half = zerofinder._mesh_zeros(groups, rows, lipschitz, mesh, bezout)
            starts = _ref_candidate_faces(depth, groups, rows, lipschitz, np.arange(20 * 4**depth))
            points, ok = zerofinder._newton_refine(groups, rows, starts, mesh.max_edge)
            points = points[ok]
            resid = np.abs(zerofinder._row_values(groups, rows, points)).max(axis=1)
            points = points[resid <= zerofinder.RESIDUAL_FACTOR * lipschitz.max()]
            whole = zerofinder._dedup_and_sort(points, bezout)
            assert 0 < half.shape[0] <= bezout
            assert whole.shape == half.shape
            gap = np.linalg.norm(whole[:, None, :] - half[None, :, :], axis=2)
            assert gap.min(axis=1).max() < 1e-12
            assert gap.min(axis=0).max() < 1e-12


def _row_keys(a):
    """Each row of a float array (P, 3) as one opaque key, for exact row matching."""
    return np.ascontiguousarray(a).view(np.dtype((np.void, 3 * a.itemsize))).ravel()


def _soundness_sample(kind, m1, m2, share, seed):
    """A Gaussian pair of degree m1, a mixed pair (m1, m2) or a zonal pair of degree m1
    tilted by ``share`` of its threshold, with its bases."""
    if kind == "zonal":
        basis = build_basis(2, m1)
        alpha = share * zonal_tilt_threshold(m1)
        axes = [NORTH, np.array([math.sin(alpha), 0.0, math.cos(alpha)])]
        return [basis, basis], make_sample([zonal(basis, a) for a in axes], [m1, m1])
    degrees = (m1, m1) if kind == "gaussian" else (m1, m2)
    bases = [build_basis(2, m) for m in degrees]
    return bases, sample_subspace(bases, np.random.default_rng([seed, *degrees]))


class TestFaceExclusion:
    @settings(max_examples=40)
    @given(
        kind=st.sampled_from(["gaussian", "mixed", "zonal"]),
        m1=st.integers(1, 12),
        m2=st.integers(1, 12),
        share=st.floats(0.35, 0.65),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_reported_zero_lies_in_reach_of_a_kept_face(self, kind, m1, m2, share, seed):
        # A zero in a face forces the face through the centroid test, so each
        # zero, or its antipode, is within the reach of a kept face's centroid.
        bases, sample = _soundness_sample(kind, m1, m2, share, seed)
        result = find_common_zeros_s2(bases, sample)
        if result.status is SolverStatus.DEGENERATE:
            return
        mesh = icosphere(result.depth_used)
        groups = zerofinder._degree_groups(bases)
        lipschitz = np.array([math.sqrt(b.gradient_sum_constant) for b in bases])
        kept = zerofinder._candidate_faces(groups, sample.frame, lipschitz, mesh)
        # The kept centroids are rows of mesh.centroids, in face order.
        reach = mesh.centroid_reach[np.isin(_row_keys(mesh.centroids), _row_keys(kept))]
        assert reach.size == kept.shape[0]
        for z in result.zeros:
            gap = np.minimum(np.linalg.norm(kept - z, axis=1), np.linalg.norm(kept + z, axis=1))
            assert np.any(2.0 * np.arcsin(gap / 2.0) <= reach + 1e-12), z


def _points(k):
    """k distinct unit vectors standing in for the mesh's zeros."""
    t = np.arange(k) + 0.5
    return np.stack([np.cos(t), np.sin(t), np.zeros(k)], axis=1)


class TestConfirmation:
    """Every exit of the count check, with a scripted pencil count and mesh zeros.

    Degree 1 on both rows: mesh depth 4 and Bezout ceiling 2.
    """

    DEPTH = 4
    BASIS = build_basis(2, 1)
    ROWS = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

    def run(self, monkeypatch, counted, zeros):
        calls = []

        def pencil(bases, samples):
            calls.append("pencil")
            return [counted]

        def mesh_zeros(groups, rows, lipschitz, mesh, cap):
            calls.append((mesh.depth, cap))
            return zeros

        monkeypatch.setattr(zerofinder, "_pencil_rounds", pencil)
        monkeypatch.setattr(zerofinder, "_mesh_zeros", mesh_zeros)
        sample = make_sample(self.ROWS, [1, 1])
        return find_common_zeros_s2([self.BASIS, self.BASIS], sample), calls

    def max_abs_value(self, zeros):
        """max |u_i| over the points, for the unit rows of ``ROWS``."""
        return float(np.abs(eval_basis_many(self.BASIS, zeros) @ np.array(self.ROWS).T).max())

    def test_equal_counts_are_complete(self, monkeypatch):
        zeros = _points(2)
        result, calls = self.run(monkeypatch, (2, math.inf), zeros)
        assert calls == ["pencil", (self.DEPTH, 2)]
        assert result.status is SolverStatus.COMPLETE
        assert (result.depth_used, result.escalations) == (self.DEPTH, 0)
        assert result.max_residual == self.max_abs_value(zeros) > 0.0
        assert np.array_equal(result.zeros, zeros)

    @pytest.mark.parametrize("found", [0, 1, 3], ids=["none", "fewer", "above-bezout"])
    def test_other_counts_are_unconfirmed(self, monkeypatch, found):
        # The mesh's zeros are reported; past the ceiling the Bezout check fails.
        zeros = _points(found)
        result, calls = self.run(monkeypatch, (2, 0.5), zeros)
        assert calls == ["pencil", (self.DEPTH, 2)]
        assert result.status is SolverStatus.UNCONFIRMED
        assert (result.depth_used, result.escalations) == (self.DEPTH, 0)
        assert result.max_residual == (self.max_abs_value(zeros) if found else 0.0)
        assert np.array_equal(result.zeros, zeros)
        assert verify_bezout(result) is (found <= 2)

    def test_a_declined_sample_is_degenerate_and_runs_no_mesh(self, monkeypatch):
        result, calls = self.run(monkeypatch, None, _points(2))
        assert calls == ["pencil"]
        assert result.status is SolverStatus.DEGENERATE
        assert (result.depth_used, result.escalations) == (self.DEPTH, 0)
        assert math.isnan(result.max_residual)
        assert result.zeros.shape == (0, 3)


def _sweep_inputs(degrees, rng):
    """Bases, unit rows, degree groups and Lipschitz bounds of one Gaussian sample."""
    bases = [build_basis(2, m) for m in degrees]
    rows = zerofinder._unit_rows(gaussian_sample(degrees, rng).rows)
    lipschitz = np.array([math.sqrt(b.gradient_sum_constant) for b in bases])
    return bases, rows, zerofinder._degree_groups(bases), lipschitz


SWEEP_DEGREES = pytest.mark.parametrize(
    "degrees, samples",
    [((1, 1), 4), ((2, 5), 3), ((3, 3), 4), ((8, 8), 1)],
    ids=["1x1", "2x5", "3x3", "8x8"],
)


class TestBatchIndependence:
    """A start's Newton run and a point's row values do not depend on the rest of its batch."""

    @pytest.mark.parametrize(
        "degrees", [(1, 1), (2, 3), (3, 3), (5, 5), (8, 8), (1, 4)],
        ids=["1x1", "2x3", "3x3", "5x5", "8x8", "1x4"],
    )
    def test_a_start_alone_matches_its_sweep(self, degrees):
        depth = zerofinder.default_mesh_depth(max(degrees))
        mesh = icosphere(depth)
        rng = np.random.default_rng([*degrees, 19])
        _, rows, groups, lipschitz = _sweep_inputs(degrees, rng)
        centroids = zerofinder._candidate_faces(groups, rows, lipschitz, mesh)
        # Mesh starts, most of which converge, then random ones, most of which fail.
        starts = np.concatenate([centroids[:30], random_sphere_points(2, 40, rng)])[:40]
        points, ok = zerofinder._newton_refine(groups, rows, starts, mesh.max_edge)
        values = zerofinder._row_values(groups, rows, starts)
        assert ok.any()
        for k in range(40):
            alone, alone_ok = zerofinder._newton_refine(groups, rows, starts[k : k + 1], mesh.max_edge)
            assert alone_ok[0] == ok[k], k
            assert np.array_equal(alone[0], points[k]), k
            assert np.array_equal(zerofinder._row_values(groups, rows, starts[k : k + 1])[0], values[k]), k


class TestNewtonSweep:
    """What one Newton sweep from the kept faces' centroids returns."""

    @SWEEP_DEGREES
    def test_converged_points_pass_the_residual_filter_within_the_travel_cap(
        self, degrees, samples
    ):
        depth = zerofinder.default_mesh_depth(max(degrees))
        mesh = icosphere(depth)
        rng = np.random.default_rng([*degrees, 23])
        for _ in range(samples):
            _, rows, groups, lipschitz = _sweep_inputs(degrees, rng)
            starts = zerofinder._candidate_faces(groups, rows, lipschitz, mesh)
            points, ok = zerofinder._newton_refine(groups, rows, starts, mesh.max_edge)
            assert ok.any()
            points, starts = points[ok], starts[ok]
            assert np.allclose(np.linalg.norm(points, axis=1), 1.0, rtol=0.0, atol=1e-15)
            travel = np.arccos(np.clip(np.einsum("pi,pi->p", points, starts), -1.0, 1.0))
            assert np.all(travel <= 3.0 * mesh.max_edge)
            resid = np.abs(zerofinder._row_values(groups, rows, points)).max(axis=1)
            assert np.all(resid <= zerofinder.RESIDUAL_FACTOR * lipschitz.max())

    @SWEEP_DEGREES
    def test_a_start_near_a_zero_returns_to_it(self, degrees, samples):
        # Each zero, moved a thousandth of an edge along the sphere, is a
        # start inside its basin: Newton brings it back to the last bits.
        depth = zerofinder.default_mesh_depth(max(degrees))
        mesh = icosphere(depth)
        bezout = 2 * degrees[0] * degrees[1]
        rng = np.random.default_rng([*degrees, 29])
        for _ in range(samples):
            _, rows, groups, lipschitz = _sweep_inputs(degrees, rng)
            zeros = zerofinder._mesh_zeros(groups, rows, lipschitz, mesh, bezout)
            assert zeros.shape[0] > 0
            kick = np.cross(zeros, random_sphere_points(2, zeros.shape[0], rng))
            starts = zeros + 1e-3 * mesh.max_edge * kick
            starts /= np.linalg.norm(starts, axis=1, keepdims=True)
            points, ok = zerofinder._newton_refine(groups, rows, starts, mesh.max_edge)
            assert ok.all()
            assert np.max(np.abs(points - zeros)) < 1e-14


class TestNewtonStep:
    """The frame-free step against the solve in an explicit tangent frame."""

    @staticmethod
    def frame_step(pts, vals, grad):
        # J s = -u in the tangent frame (e1, e2) at each point, by Cramer's rule.
        e1, e2 = tangent_frames(pts).transpose(1, 0, 2)
        j00 = np.einsum("pj,pj->p", grad[:, 0], e1)
        j01 = np.einsum("pj,pj->p", grad[:, 0], e2)
        j10 = np.einsum("pj,pj->p", grad[:, 1], e1)
        j11 = np.einsum("pj,pj->p", grad[:, 1], e2)
        det = j00 * j11 - j01 * j10
        s1 = (-vals[:, 0] * j11 + vals[:, 1] * j01) / det
        s2 = (-vals[:, 1] * j00 + vals[:, 0] * j10) / det
        return s1[:, None] * e1 + s2[:, None] * e2, np.abs(det)

    @settings(max_examples=40)
    @given(
        m1=st.integers(1, 12),
        m2=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_step_solves_the_tangent_system(self, m1, m2, seed):
        rng = np.random.default_rng(seed)
        bases = [build_basis(2, m1), build_basis(2, m2)]
        rows = zerofinder._unit_rows(gaussian_sample((m1, m2), rng).rows)
        pts = random_sphere_points(2, 50, rng)
        vals = np.empty((50, 2))
        grad = np.empty((50, 2, 3))
        for basis, idx in zerofinder._degree_groups(bases):
            vals[:, idx], grad[:, idx, :] = eval_basis_and_gradient_many(
                basis, pts, rows=rows[idx, : basis.dimension]
            )
        step, singular = zerofinder._newton_step(pts, vals, grad)
        assert not singular.any()
        size = np.linalg.norm(step, axis=1)
        norms = np.linalg.norm(grad, axis=2)
        # grad u_i . s = -u_i and s . x = 0, relative to the sizes of the terms.
        residual = np.abs(np.einsum("pij,pj->pi", grad, step) + vals)
        assert np.all(residual <= 1e-12 * (np.abs(vals) + norms * size[:, None]))
        assert np.all(np.abs(np.einsum("pj,pj->p", step, pts)) <= 1e-12 * size)
        # Both solves round like det J: their gap, relative to |s|, stays below
        # 1e-12 times the condition number |g1| |g2| / |det J|.
        reference, det = self.frame_step(pts, vals, grad)
        kappa = norms.prod(axis=1) / det
        assert np.all(np.linalg.norm(step - reference, axis=1) <= 1e-12 * kappa * size)

    def test_only_exact_or_denormal_degeneracy_is_singular(self):
        # Parallel gradients, then |det J|^2 of 1e-320 (denormal) and 1e-300.
        x = np.array([0.6, 0.0, 0.8])
        e1, e2 = np.array([0.0, 1.0, 0.0]), np.array([0.8, 0.0, -0.6])
        grad = np.array([[e1, 2.0 * e1], [e1, 1e-160 * e2], [e1, 1e-150 * e2]])
        step, singular = zerofinder._newton_step(np.tile(x, (3, 1)), np.ones((3, 2)), grad)
        assert singular.tolist() == [True, True, False]
        assert np.isfinite(step).all()


def _ref_newton_step(pts, vals, grad):
    """The Newton step in its np.cross form, kept verbatim as the bit reference."""
    turned = np.cross(pts[:, None, :], grad)
    det = np.einsum("pj,pj->p", turned[:, 0], grad[:, 1])
    singular = ~(det * det >= np.finfo(float).tiny)
    det = np.where(singular, 1.0, det)
    step = vals[:, :1] * turned[:, 1] - vals[:, 1:] * turned[:, 0]
    return step / det[:, None], singular


def _ref_dedup_and_sort(points, stop_above):
    """Dedup in its np.unique form with a rebuilt representative array, kept verbatim but
    for the order of the representatives, by their rounded coordinates."""
    if points.shape[0] == 0:
        return points.reshape(0, 3)
    _, first = np.unique(np.round(points, 8), axis=0, return_index=True)
    collapsed = points[np.sort(first)]
    rounded = np.round(collapsed, 8)
    order = np.lexsort((rounded[:, 2], rounded[:, 1], rounded[:, 0]))
    collapsed = collapsed[order]
    reps = []
    rep_arr = np.empty((0, 3))
    for p in collapsed:
        if rep_arr.shape[0]:
            dots = rep_arr @ p
            if np.arccos(np.clip(dots.max(), -1.0, 1.0)) < zerofinder.DEDUP_RADIUS:
                continue
        reps.append(p)
        rep_arr = np.asarray(reps)
        if len(reps) > stop_above:
            break
    return rep_arr


def _ref_newton_refine(groups, rows, starts, max_edge):
    """The Newton sweep in its gather/scatter form over all starts, kept verbatim
    (with the reference step and the module's iteration cap)."""
    pts = starts.copy()
    origin = starts
    path = np.zeros(pts.shape[0])
    state = np.zeros(pts.shape[0], dtype=np.int8)   # 0 active, 1 converged, 2 failed
    step_cap = np.broadcast_to(max_edge, path.shape)
    travel_cap = 3.0 * step_cap
    path_cap = 4.0 * step_cap
    for _ in range(zerofinder.MAX_NEWTON_ITER):
        active = np.nonzero(state == 0)[0]
        if active.size == 0:
            break
        p = pts[active]
        vals = np.empty((active.size, 2))
        grad = np.empty((active.size, 2, 3))
        for basis, idx in groups:
            vals[:, idx], grad[:, idx, :] = eval_basis_and_gradient_many(
                basis, p, rows=rows[idx, : basis.dimension]
            )
        s, singular = _ref_newton_step(p, vals, grad)
        step = np.linalg.norm(s, axis=1)
        damp = np.minimum(1.0, step_cap[active] / np.maximum(step, 1e-300))
        moved = p + damp[:, None] * s
        moved /= np.linalg.norm(moved, axis=1, keepdims=True)
        pts[active] = moved
        path[active] += step * damp
        travel = np.arccos(np.clip(np.einsum("pi,pi->p", moved, origin[active]), -1.0, 1.0))
        failed = singular | (travel > travel_cap[active]) | (path[active] > path_cap[active])
        converged = (step < zerofinder.NEWTON_TOL) & ~failed
        state[active[converged]] = 1
        state[active[failed]] = 2
    return pts, state == 1


def _ref_candidate_faces(depth, groups, rows, lipschitz, face_pool):
    """The centroid exclusion over any faces of the whole depth-d icosphere, either half, with
    the centroids and reaches computed from their corners."""
    vertices, faces = whole_icosphere(depth)
    centroids, reach = face_geometry(*vertices[faces[:, face_pool]])
    vals = zerofinder._row_values(groups, rows, centroids)
    ok = (np.abs(vals) <= lipschitz[None, :] * reach[:, None]).all(axis=1)
    return centroids[ok]


def _same_bits(a, b):
    same_signs = np.array_equal(np.signbit(a), np.signbit(b))
    return a.shape == b.shape and np.array_equal(a, b) and same_signs


_SPECIAL = st.sampled_from([0.0, -0.0, 1e-160, -1e-160, 5e-324, 1.0, -1.0])


class TestMatchesReference:
    """The step, the dedup, the Newton sweep and the exclusion pass give the bits of their
    reference forms."""

    @settings(max_examples=200)
    @given(data=st.data(), n=st.integers(1, 12), fortran=st.booleans())
    def test_step(self, data, n, fortran):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        pts = random_sphere_points(2, n, rng)
        grad = rng.standard_normal((n, 2, 3))
        vals = rng.standard_normal((n, 2))
        for p in range(n):
            kind = data.draw(st.sampled_from(["random", "parallel", "denormal", "special"]))
            if kind == "parallel":      # det J = 0 up to rounding
                grad[p, 1] = data.draw(st.sampled_from([2.0, -0.5, 0.0, -0.0])) * grad[p, 0]
            elif kind == "denormal":    # |det J|^2 near or below the smallest normal
                grad[p, 1] *= data.draw(st.sampled_from([1e-150, 1e-160, 1e-170]))
            elif kind == "special":     # signed zeros, denormals and units, entry by entry
                entries = data.draw(st.lists(_SPECIAL, min_size=6, max_size=6))
                grad[p] = np.array(entries).reshape(2, 3)
                vals[p] = data.draw(st.lists(_SPECIAL, min_size=2, max_size=2))
        if fortran:
            grad = np.asfortranarray(grad)
        with np.errstate(all="ignore"):
            ours, ref = zerofinder._newton_step(pts, vals, grad), _ref_newton_step(pts, vals, grad)
        assert _same_bits(ours[0], ref[0])
        assert np.array_equal(ours[1], ref[1])

    @settings(max_examples=200)
    @given(data=st.data(), k=st.integers(0, 12))
    def test_dedup(self, data, k):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        base = random_sphere_points(2, k, rng)
        cloud = [base]
        kinds = st.lists(st.sampled_from(["copy", "near", "radius", "zeros"]), max_size=4)
        for kind in data.draw(kinds):
            if k == 0:
                break
            pick = base[rng.integers(0, k, size=rng.integers(1, k + 1))].copy()
            if kind == "near":          # on both sides of the 8-decimal rounding
                edge = np.round(pick, 8) + 0.5e-8
                pick = edge + rng.choice([-1.0, 1.0], size=pick.shape) * 1e-13
            elif kind == "radius":      # inside and outside the geodesic merge radius
                scale = rng.choice([0.3, 3.0]) * zerofinder.DEDUP_RADIUS
                pick += scale * rng.standard_normal(pick.shape)
            elif kind == "zeros":       # signed zeros in random coordinates
                pick[rng.random(pick.shape) < 0.5] = 0.0
                pick[rng.random(pick.shape) < 0.5] *= -1.0
            cloud.append(pick)
        points = np.concatenate(cloud)
        points = points[rng.permutation(points.shape[0])]
        stop_above = data.draw(st.integers(0, points.shape[0] + 2))
        assert _same_bits(
            zerofinder._dedup_and_sort(points, stop_above), _ref_dedup_and_sort(points, stop_above)
        )

    def test_dedup_of_no_points(self):
        empty = np.empty((0, 3))
        assert _same_bits(zerofinder._dedup_and_sort(empty, 8), _ref_dedup_and_sort(empty, 8))

    def test_dedup_order_survives_last_bit_changes(self):
        # Mirror pairs whose coordinates are moved by an ulp, and whose zero
        # coordinates change sign or become +-1e-17: the rounded keys stay,
        # so the order of the representatives stays.  Sorted by the raw
        # coordinates, x = 1e-17 and x = -1e-17 would swap such a pair.
        rng = np.random.default_rng(29)
        base = random_sphere_points(2, 12, rng)
        base[:4, 0] = 0.0
        base[4:8, 2] = 0.0
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        points = np.concatenate([base, -base])
        reference = zerofinder._dedup_and_sort(points, 24)
        assert reference.shape == (24, 3)
        for trial in range(20):
            moved = np.nextafter(points, rng.choice([-np.inf, np.inf], size=points.shape))
            zero = points == 0.0
            moved[zero] = rng.choice([0.0, -0.0, 1e-17, -1e-17], size=zero.sum())
            moved = moved[rng.permutation(moved.shape[0])]
            reps = zerofinder._dedup_and_sort(moved, 24)
            assert reps.shape == reference.shape
            assert np.max(np.abs(reps - reference)) <= 1e-15, trial

    @SWEEP_DEGREES
    @pytest.mark.parametrize("max_iter", [zerofinder.MAX_NEWTON_ITER, 3])
    def test_newton_sweep(self, degrees, samples, max_iter, monkeypatch):
        # Mesh starts, most of which converge; random starts, most of which
        # fail on the travel cap; the same starts with 30x the cap, where up
        # to a third of the random ones fail on the path cap alone (none at
        # 1x1); and with the iteration cap cut to 3, starts still active when
        # it runs out.
        monkeypatch.setattr(zerofinder, "MAX_NEWTON_ITER", max_iter)
        depth = zerofinder.default_mesh_depth(max(degrees))
        mesh = icosphere(depth)
        rng = np.random.default_rng([*degrees, 23])
        for _ in range(samples):
            _, rows, groups, lipschitz = _sweep_inputs(degrees, rng)
            centroids = zerofinder._candidate_faces(groups, rows, lipschitz, mesh)
            starts = np.concatenate([centroids[:40], random_sphere_points(2, 40, rng)])
            for cap in (30.0 * mesh.max_edge, mesh.max_edge):
                points, ok = zerofinder._newton_refine(groups, rows, starts, cap)
                ref_points, ref_ok = _ref_newton_refine(groups, rows, starts, cap)
                assert np.array_equal(ok, ref_ok)
                assert _same_bits(points, ref_points)
            assert not ok.all() and (ok.any() or max_iter == 3)

    def test_exclusion_pass_keeps_the_faces_of_the_reference(self):
        # The frozen solver cases at their mesh depth: the same Newton starts,
        # to the bit, as the kernel's row values at the first half's centroids.
        for case in json.loads(FROZEN_OUTCOMES.read_text()):
            bases = [build_basis(2, m) for m in case["degrees"]]
            rows = make_sample(case["rows"], case["degrees"]).frame
            groups = zerofinder._degree_groups(bases)
            lipschitz = np.array([math.sqrt(b.gradient_sum_constant) for b in bases])
            depth = zerofinder.default_mesh_depth(max(case["degrees"]))
            mesh = icosphere(depth)
            starts = zerofinder._candidate_faces(groups, rows, lipschitz, mesh)
            ref_starts = _ref_candidate_faces(depth, groups, rows, lipschitz, _first_half(depth))
            assert _same_bits(starts, ref_starts)


class TestPassSweep:
    """The real pipeline: one exclusion pass over the base mesh, one Newton sweep and
    three row-value evaluations."""

    def test_a_solve_makes_one_pass_and_one_newton_sweep(self, monkeypatch):
        faces, sweeps, values = [], [], []
        candidate_faces, newton_refine = zerofinder._candidate_faces, zerofinder._newton_refine
        row_values = zerofinder._row_values

        def candidates(groups, rows, lipschitz, mesh):
            faces.append(mesh.depth)
            return candidate_faces(groups, rows, lipschitz, mesh)

        def newton(groups, rows, starts, max_edge):
            sweeps.append(max_edge)
            return newton_refine(groups, rows, starts, max_edge)

        def evaluated(groups, rows, pts):
            values.append(pts)
            return row_values(groups, rows, pts)

        monkeypatch.setattr(zerofinder, "_candidate_faces", candidates)
        monkeypatch.setattr(zerofinder, "_newton_refine", newton)
        monkeypatch.setattr(zerofinder, "_row_values", evaluated)
        basis = build_basis(2, 3)
        sample = gaussian_sample([3, 3], np.random.default_rng(17))
        result = find_common_zeros_s2([basis, basis], sample)
        assert result.status is SolverStatus.COMPLETE
        depth = zerofinder.default_mesh_depth(3)
        assert faces == [depth]
        assert sweeps == [icosphere(depth).max_edge]
        # The residual filter and the max residual on the reported zeros.
        assert len(values) == 2
        assert values[-1] is result.zeros

    @pytest.mark.parametrize(
        "argv, depth0",
        [(["zonal", "--degree", "8"], 6), (["count", "--degree", "12", "--seed", "1"], 7)],
        ids=["zonal-8", "count-12"],
    )
    def test_only_the_base_mesh_is_built(self, monkeypatch, capsys, argv, depth0):
        meshes, blocks, passes = [], [], []
        mesh, block = zerofinder.icosphere, zerofinder._basis_at_centroids
        candidate_faces = zerofinder._candidate_faces

        def built(depth):
            meshes.append(depth)
            return mesh(depth)

        def centroid_block(degree, depth):
            blocks.append(depth)
            return block(degree, depth)

        def searched(groups, rows, lipschitz, mesh):
            passes.append(mesh.depth)
            return candidate_faces(groups, rows, lipschitz, mesh)

        monkeypatch.setattr(zerofinder, "icosphere", built)
        monkeypatch.setattr(zerofinder, "_basis_at_centroids", centroid_block)
        monkeypatch.setattr(zerofinder, "_candidate_faces", searched)
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "Complete"
        assert passes == [depth0]
        assert max(meshes) == depth0
        assert set(blocks) == {depth0}


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


def circle_roots(basis, coeffs, frame):
    """Root angles of u on the one great circle of ``frame``, which must not be degenerate."""
    roots, counts, degenerate = restrict_to_great_circle(basis, coeffs, np.asarray(frame)[None])
    assert not degenerate[0] and counts.tolist() == [roots.size]
    return roots


def values_on_circle(basis, coeffs, frame, angles):
    """u at cos(t) e1 + sin(t) e2 for each angle t."""
    pts = np.outer(np.cos(angles), frame[0]) + np.outer(np.sin(angles), frame[1])
    return eval_basis_many(basis, pts) @ coeffs


class TestCircleRestriction:
    EQUATOR = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    MERIDIAN = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])

    def test_z_on_equator_degenerate(self):
        basis = build_basis(2, 1)
        roots, counts, degenerate = restrict_to_great_circle(
            basis, [1.0, 0.0, 0.0], self.EQUATOR[None]
        )
        assert degenerate[0]
        assert counts.tolist() == [0] and roots.size == 0

    def test_z_on_meridian_two_roots(self):
        basis = build_basis(2, 1)
        roots = circle_roots(basis, [1.0, 0.0, 0.0], self.MERIDIAN)
        assert roots.size == 2
        # u along the meridian is proportional to sin t: roots at 0 and pi.
        assert np.max(np.abs(roots - np.array([0.0, math.pi]))) < 1e-10

    def test_roots_are_roots(self):
        basis = build_basis(2, 4)
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(9)
        roots = circle_roots(basis, coeffs, self.MERIDIAN)
        assert np.max(np.abs(values_on_circle(basis, coeffs, self.MERIDIAN, roots))) < 1e-10

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
            count = circle_roots(basis, coeffs, frame).size
            assert count <= 2 * m
            t = 2.0 * math.pi * np.arange(64 * m) / (64 * m)
            vals = values_on_circle(basis, coeffs, frame, t)
            sign_flips = int(np.sum(np.sign(vals) != np.sign(np.roll(vals, -1))))
            assert count == sign_flips

    def test_close_root_pair_is_counted(self):
        # Roots at t = 1.178 and 1.268 (and their antipodes) lie closer
        # together than one step of a 64-point sign scan, which saw 2 roots;
        # a 200000-point scan sees 6.
        basis = build_basis(2, 3)
        frame = circle_frames(np.random.default_rng([2, 224, 0]).standard_normal((1, 2, 3)))[0]
        coeffs = zonal(basis, NORTH)
        roots = circle_roots(basis, coeffs, frame)
        assert roots.size == 6
        assert np.max(np.abs(values_on_circle(basis, coeffs, frame, roots))) < 1e-12

    @pytest.mark.parametrize("m", [1, 3, 8, 16, 50])
    def test_companion_eigenvalue_gap(self, m):
        # Eigenvalues on the unit circle sit far inside UNIT_CIRCLE_TOL, and
        # the rest far outside it, for zonal and random functions.
        basis = build_basis(2, m)
        rng = np.random.default_rng([m, 31])
        frames = circle_frames(rng.standard_normal((100, 2, 3)))
        for coeffs in (zonal(basis, NORTH), rng.standard_normal(2 * m + 1)):
            zeta, _, degenerate = _circle_eigenvalues(basis, coeffs, frames)
            assert not degenerate.any()
            gap = np.abs(np.log(np.abs(zeta))) / 2.0      # |log|z|| for zeta = z^2
            assert gap[gap < UNIT_CIRCLE_TOL].max(initial=0.0) <= 1e-11
            assert gap[gap >= UNIT_CIRCLE_TOL].min(initial=np.inf) >= 1e-5

    @settings(max_examples=50)
    @given(m=st.integers(1, 24), seed=st.integers(0, 2**32 - 1), turn=st.floats(0.0, 2.0 * math.pi))
    def test_count_is_even_bounded_and_rotation_invariant(self, m, seed, turn):
        basis = build_basis(2, m)
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(2 * m + 1)
        e1, e2 = circle_frames(rng.standard_normal((1, 2, 3)))[0]
        turned = np.stack([math.cos(turn) * e1 + math.sin(turn) * e2,
                           math.cos(turn) * e2 - math.sin(turn) * e1])
        _, counts, _ = restrict_to_great_circle(basis, coeffs, np.stack([[e1, e2], turned]))
        assert counts[0] % 2 == 0 and counts[0] <= 2 * m
        assert counts[1] == counts[0]

    @settings(max_examples=50)
    @given(m=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
    def test_roots_come_in_antipodal_pairs(self, m, seed):
        # u(t + pi) = (-1)^m u(t): each unit-circle zeta gives the roots t and t + pi.
        basis = build_basis(2, m)
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(2 * m + 1)
        frames = circle_frames(rng.standard_normal((3, 2, 3)))
        roots, counts, degenerate = restrict_to_great_circle(basis, coeffs, frames)
        zeta, live, _ = _circle_eigenvalues(basis, coeffs, frames)
        assert not degenerate.any() and live.tolist() == [0, 1, 2]
        unit = np.abs(np.log(np.abs(zeta))) < 2.0 * UNIT_CIRCLE_TOL
        assert counts.tolist() == (2 * unit.sum(axis=1)).tolist()
        for frame, t in zip(frames, np.split(roots, np.cumsum(counts)[:-1])):
            first, second = np.split(t, 2)
            assert np.max(np.abs(second - first - math.pi), initial=0.0) < 1e-12
            assert np.max(np.abs(values_on_circle(basis, coeffs, frame, t)), initial=0.0) < 1e-10

    def test_frozen_counts(self):
        # 100 seeded random circles for each m in {1, 2, 3, 5, 8, 12, 16, 24, 50},
        # with the zonal function about the north pole and with a Gaussian
        # one; and the zonal functions of degrees 3 and 4 with the equator as
        # the 101st circle (the odd one vanishes on it, the even one is a
        # nonzero constant there).  The counts and degenerate circles are
        # those the full-circle 2m x 2m companion gave them.
        cases = json.loads(FROZEN_CIRCLE_COUNTS.read_text())
        assert len(cases) == 20
        expected, outcomes = [], []
        for case in cases:
            basis = build_basis(2, case["degree"])
            rng = np.random.default_rng(case["seed"])
            if case["function"] == "zonal":
                coeffs = zonal(basis, NORTH)
            else:
                coeffs = rng.standard_normal(basis.dimension)
            frames = circle_frames(rng.standard_normal((case["circles"], 2, 3)))
            if case["equator"]:
                frames = np.concatenate([frames, self.EQUATOR[None]])
            _, counts, degenerate = restrict_to_great_circle(basis, coeffs, frames)
            outcomes.append([counts.tolist(), np.flatnonzero(degenerate).tolist()])
            expected.append([case["counts"], case["degenerate"]])
        assert outcomes == expected

    @pytest.mark.parametrize("scale", [2.0**600, 2.0**-600, 8.0])
    def test_power_of_two_scaling_keeps_every_bit(self, scale):
        # |c| of 2^600 c overflows; a zero function of any scale is the same
        # zero set, and a power-of-two scale keeps the roots to the bit.
        rng = np.random.default_rng(41)
        frames = np.concatenate([circle_frames(rng.standard_normal((6, 2, 3))), self.EQUATOR[None]])
        for m, coeffs in ((3, zonal(build_basis(2, 3), NORTH)), (5, rng.standard_normal(11))):
            basis = build_basis(2, m)
            plain = restrict_to_great_circle(basis, coeffs, frames)
            scaled = restrict_to_great_circle(basis, scale * coeffs, frames)
            assert all(np.array_equal(a, b) for a, b in zip(plain, scaled))
            assert plain[2].tolist() == [False] * 6 + [m == 3]

    def test_rejects_bad_frame(self):
        basis = build_basis(2, 2)
        for frames in (
            np.array([[[1.0, 0, 0], [1.0, 0, 0]]]),     # not orthonormal
            self.EQUATOR,                               # a bare (2, 3) frame
            np.empty((0, 2, 3)),                        # no circle
            np.full((1, 2, 3), np.nan),                 # compares False with any tolerance
        ):
            with pytest.raises(SphereInputError):
                restrict_to_great_circle(basis, np.ones(5), frames)


class TestPencilCount:
    """The resultant count over the great circles through one point."""

    @staticmethod
    def rows_of(bases, sample):
        return [row[: b.dimension] for b, row in zip(bases, sample.rows)]

    def test_agrees_with_every_frozen_complete_count(self, capsys):
        # The frozen outcomes are the mesh's (count, status, ...) of each case.
        cases = json.loads(FROZEN_OUTCOMES.read_text())
        complete = accepted = 0
        disagreements = []
        for k, case in enumerate(cases):
            if case["outcome"][1] != "Complete":
                continue
            complete += 1
            bases = [build_basis(2, m) for m in case["degrees"]]
            counted = zerofinder.pencil_count(bases, make_sample(case["rows"], case["degrees"]))
            if counted is None:
                continue
            accepted += 1
            if counted[0] != case["outcome"][0]:
                disagreements.append((k, case["outcome"][0], counted[0]))
        with capsys.disabled():
            print(f"\npencil accepted {accepted} of {complete} frozen Complete cases")
        assert disagreements == []
        assert accepted >= 0.9 * complete

    @settings(max_examples=40)
    @given(m1=st.integers(1, 5), m2=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_count_is_even_bounded_and_invariant(self, m1, m2, seed):
        # Under a rotation, a swap of the rows and a change of basis of the
        # span, every count the gap rule accepts is the same.
        bases = [build_basis(2, m1), build_basis(2, m2)]
        rng = np.random.default_rng(seed)
        sample = gaussian_sample([m1, m2], rng)
        rows = self.rows_of(bases, sample)
        rotation = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        rotated = make_sample(
            [rotate_coefficients(b, r, rotation) for b, r in zip(bases, rows)], [m1, m2]
        )
        swapped = make_sample(rows[::-1], [m2, m1])
        variants = [
            zerofinder.pencil_count(bases, sample),
            zerofinder.pencil_count(bases, rotated),
            zerofinder.pencil_count(bases[::-1], swapped),
        ]
        if m1 == m2:
            mixed = (rng.standard_normal((2, 2)) + 2.0 * np.eye(2)) @ np.stack(rows)
            variants.append(zerofinder.pencil_count(bases, make_sample(mixed, [m1, m2])))
        counts = {c[0] for c in variants if c is not None}
        assert len(counts) <= 1
        for count in counts:
            assert count % 2 == 0 and count <= 2 * m1 * m2

    @pytest.mark.parametrize("m1, m2", [(1, 1), (2, 3), (4, 4), (6, 6), (8, 8)])
    def test_matches_the_mesh_and_reports_its_margin(self, m1, m2):
        bases = [build_basis(2, m1), build_basis(2, m2)]
        for i in range(3):
            sample = sample_subspace(bases, np.random.default_rng([m1, m2, i, 8]))
            count, margin = zerofinder.pencil_count(bases, sample)
            assert count == find_common_zeros_s2(bases, sample).count
            assert margin >= zerofinder.PENCIL_OFF_CIRCLE

    def test_rotating_the_pencil_center_keeps_the_count(self, monkeypatch):
        # Each center of the fixed set sees the same zeros from another side.
        bases = [build_basis(2, 3), build_basis(2, 4)]
        sample = sample_subspace(bases, np.random.default_rng(41))
        base = zerofinder.pencil_count(bases, sample)[0]
        circles = zerofinder._pencil_circle_basis
        for center in range(0, 32, 4):
            def only(bases, rows, _k=center):
                # Every center scores 0 but this one, so it is tried first.
                score = np.zeros((rows[0].shape[0], 32))
                score[:, _k] = 1.0
                return score
            tried = []
            monkeypatch.setattr(zerofinder, "_center_scores", only)
            monkeypatch.setattr(
                zerofinder, "_pencil_circle_basis", lambda *a: tried.append(a[2]) or circles(*a)
            )
            counted = zerofinder.pencil_count(bases, sample)
            assert tried[0] == center
            assert counted is None or counted[0] == base, center

    def test_a_common_nodal_circle_is_declined(self):
        # x and xz share the great circle x = 0; so do the odd zonal functions
        # about one axis, which share the equator.  R vanishes identically.
        b1, b2 = build_basis(2, 1), build_basis(2, 2)
        shared = make_sample([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0]], [1, 2])
        assert zerofinder.pencil_count([b1, b2], shared) is None
        for m1, m2 in [(1, 3), (3, 5)]:
            bases = [build_basis(2, m1), build_basis(2, m2)]
            coaxial = make_sample([zonal(b, NORTH) for b in bases], [m1, m2])
            assert zerofinder.pencil_count(bases, coaxial) is None

    @pytest.mark.parametrize("m1, m2", [(1, 3), (3, 5), (5, 7)])
    def test_a_flat_resultant_is_declined_at_the_first_center(self, m1, m2, monkeypatch):
        # The best center is off both zero sets, and R vanishes on every
        # circle through it: the shared equator, not a zero at the center.
        bases = [build_basis(2, m1), build_basis(2, m2)]
        coaxial = make_sample([zonal(b, NORTH) for b in bases], [m1, m2])
        built = []
        sylvester = zerofinder._pencil_sylvester
        monkeypatch.setattr(
            zerofinder,
            "_pencil_sylvester",
            lambda p1, p2: built.append(p1.shape[0]) or sylvester(p1, p2),
        )
        assert zerofinder.pencil_count(bases, coaxial) is None
        assert built == [1]
        # With every score 0 a common zero at the center could explain R = 0,
        # so each center is tried in turn.
        built.clear()
        monkeypatch.setattr(zerofinder, "_center_scores", lambda b, rows: np.zeros((1, 32)))
        assert zerofinder.pencil_count(bases, coaxial) is None
        assert built == [1] * 32

    @settings(max_examples=25)
    @given(
        m1=st.integers(1, 5), m2=st.integers(1, 5),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
    )
    def test_batched_counts_are_the_one_at_a_time_bits(self, m1, m2, seeds):
        bases = [build_basis(2, m1), build_basis(2, m2)]
        samples = [gaussian_sample([m1, m2], np.random.default_rng(seed)) for seed in seeds]
        alone = [zerofinder.pencil_count(bases, s) for s in samples]
        assert zerofinder.pencil_counts(bases, samples) == alone
        assert zerofinder.pencil_counts(bases, samples[::-1]) == alone[::-1]

    @pytest.mark.parametrize(
        "m, key",
        [
            (2, [486652553, 0, 0]),
            (3, [1100282271, 0, 0]),
            (4, [1132403347, 0, 0]),
            (8, [2024, 6198, 0]),
        ],
    )
    def test_hard_draws_keep_their_bits_in_a_mixed_batch(self, m, key, monkeypatch):
        # Each hard draw needs a later center than its best one; in a batch
        # it goes on alone while the ordinary draws around it are counted.
        bases = [build_basis(2, m), build_basis(2, m)]
        hard = sample_subspace(bases, np.random.default_rng(key))
        ordinary = [sample_subspace(bases, np.random.default_rng([i, 0, 0])) for i in range(4)]
        alone = {id(s): zerofinder.pencil_count(bases, s) for s in [hard, *ordinary]}
        for batch in ([hard, *ordinary], [*ordinary[:2], hard, *ordinary[2:]], [*ordinary, hard]):
            assert zerofinder.pencil_counts(bases, batch) == [alone[id(s)] for s in batch]
        # Split into batches of one sample each, the counts are the same.
        monkeypatch.setattr(zerofinder, "PENCIL_BATCH", 1)
        batch = [*ordinary, hard]
        assert zerofinder.pencil_counts(bases, batch) == [alone[id(s)] for s in batch]

    @pytest.mark.parametrize("m1, m2", [(1, 4), (3, 3), (5, 2)])
    def test_cached_basis_values_are_fresh_bits_and_read_only(self, m1, m2):
        deg = m1 * m2
        phi = math.pi * np.arange(deg + 1) / (deg + 1)
        cos, sin = np.cos(phi), np.sin(phi)
        for m in (m1, m2):
            basis = build_basis(2, m)
            cached = zerofinder._center_basis(m)
            assert np.array_equal(cached, eval_basis_many(basis, zerofinder.PENCIL_CENTERS))
            assert not cached.flags.writeable
            for center in (0, 17, 31):
                a, b = zerofinder._PENCIL_PLANES[center]
                frames = np.stack([
                    np.stack([zerofinder.PENCIL_CENTERS[center], c * a + s * b])
                    for c, s in zip(cos, sin)
                ])
                t = math.pi * np.arange(m + 1) / (m + 1)
                pts = np.concatenate(
                    [np.outer(np.cos(t), e1) + np.outer(np.sin(t), e2) for e1, e2 in frames]
                )
                cached = zerofinder._pencil_circle_basis(m, deg, center)
                assert np.array_equal(cached, eval_basis_many(basis, pts))
                assert not cached.flags.writeable
                with pytest.raises(ValueError):
                    cached[0, 0] = 0.0

    def test_an_empty_batch_has_no_counts(self):
        basis = build_basis(2, 2)
        assert zerofinder.pencil_counts([basis, basis], []) == []

    def test_a_margin_inside_the_gap_is_declined(self, monkeypatch):
        # The count is the same from every center, so each center sees the
        # off-circle roots of this draw; with no upper end to the gap they
        # all fall inside it, and every center declines.
        bases = [build_basis(2, 2), build_basis(2, 3)]
        sample = sample_subspace(bases, np.random.default_rng(5))
        count, margin = zerofinder.pencil_count(bases, sample)
        assert count < 12 and math.isfinite(margin)       # some root lies off the circle
        monkeypatch.setattr(zerofinder, "PENCIL_OFF_CIRCLE", math.inf)
        assert zerofinder.pencil_count(bases, sample) is None

    @pytest.mark.parametrize("m, seed", [(2, 486652553), (3, 1100282271), (4, 1132403347)])
    def test_a_near_tangent_pair_in_the_gap_is_placed_off_the_circle(self, m, seed, monkeypatch):
        # Draws of the Monte Carlo stream whose zero curves nearly touch, as
        # seen from the best center: there Q has a root pair w, 1/conj(w)
        # with margin inside the gap.  A later center sees the pair clear of
        # the circle and gives the mesh's count.
        bases = [build_basis(2, m), build_basis(2, m)]
        sample = sample_subspace(bases, np.random.default_rng([seed, 0, 0]))
        count, margin = zerofinder.pencil_count(bases, sample)
        assert count == find_common_zeros_s2(bases, sample).count
        assert margin >= zerofinder.PENCIL_OFF_CIRCLE
        # With no gap the best center's own count is returned, margin and all.
        gap = (zerofinder.PENCIL_ON_CIRCLE, zerofinder.PENCIL_OFF_CIRCLE)
        monkeypatch.setattr(zerofinder, "PENCIL_OFF_CIRCLE", zerofinder.PENCIL_ON_CIRCLE)
        _, best_margin = zerofinder.pencil_count(bases, sample)
        assert gap[0] < best_margin < gap[1]

    def test_a_draw_the_best_center_miscounts_is_counted_at_the_next(self, monkeypatch):
        # At the best center of this (8, 8) draw some roots fall inside the
        # gap, and counting there anyway gives 56.  A later center and the
        # mesh count 68.
        bases = [build_basis(2, 8), build_basis(2, 8)]
        sample = sample_subspace(bases, np.random.default_rng([2024, 6198, 0]))
        mesh = find_common_zeros_s2(bases, sample)
        assert (mesh.count, mesh.status) == (68, SolverStatus.COMPLETE)
        assert zerofinder.pencil_count(bases, sample)[0] == 68
        monkeypatch.setattr(zerofinder, "PENCIL_OFF_CIRCLE", zerofinder.PENCIL_ON_CIRCLE)
        assert zerofinder.pencil_count(bases, sample)[0] == 56

    @pytest.mark.xfail(
        strict=True,
        reason="the gap rule accepts a center whose off-circle roots are not mirror pairs",
    )
    def test_the_tilted_m7_pair_is_counted_right_or_declined(self):
        # The mesh and the theory give 14 zeros.  The centers near the zonal
        # equator count 8, 10 or 12, with off-circle margins of 1e-3 to 1e-2
        # that clear the gap rule; the best-scored center counts 14 but is
        # declined by the degree-drop rule.  A certifier of the count (one
        # that checks the self-inversive pairing w, 1/conj(w) of the roots)
        # must count 14 here or decline.
        basis = build_basis(2, 7)
        axes = [NORTH, [math.sin(0.049627861392012654), 0.0, math.cos(0.049627861392012654)]]
        sample = make_sample([zonal(basis, np.array(a)) for a in axes], [7, 7])
        counted = zerofinder.pencil_count([basis, basis], sample)
        assert counted is None or counted[0] == 14

    def test_rejects_what_the_mesh_solver_rejects(self):
        basis = build_basis(2, 2)
        narrow = make_sample([[1, 0, 0], [0, 1, 0]], [2, 2])
        with pytest.raises(SphereInputError, match="5 coefficients"):
            zerofinder.pencil_count([basis, basis], narrow)
        high = build_basis(2, 13)
        rows = np.random.default_rng(3).standard_normal((2, high.dimension))
        with pytest.raises(SphereInputError, match="degrees up to 12"):
            zerofinder.pencil_count([high, high], make_sample(rows, [13, 13]))


# The members (m, mu) of the tesseral x zonal family with a finite count, m = 2..8.
FAMILY = [
    (m, mu) for m in range(2, 9) for mu in range(1, m + 1) if m % 2 == 0 or (m - mu) % 2 == 0
]
# A rotation of the (8, 3) member on which the pencil miscounts: scipy's
# Rotation.random(random_state=8030).as_matrix().
MISCOUNTED_8_3 = np.array([
    [0.8290030005030383, -0.4209248191718048, 0.3682069007530173],
    [-0.3246130311233556, -0.8983127587880327, -0.2960752732389861],
    [0.4553903876695975, 0.12592253175590284, -0.8813416538518514],
])


class TestKnownCountFamily:
    """Tesseral x zonal pairs, whose count 2*mu*m is known (``oracles.tesseral_zonal_rows``)."""

    @pytest.mark.parametrize("m, mu", FAMILY, ids=[f"m{m}-mu{mu}" for m, mu in FAMILY])
    def test_every_member_is_complete_with_its_count(self, m, mu):
        bases = [build_basis(2, m)] * 2
        for k in range(2):
            rotation = np.linalg.qr(np.random.default_rng([m, mu, k]).standard_normal((3, 3)))[0]
            sample = make_sample(tesseral_zonal_rows(m, mu, rotation), [m, m])
            result = find_common_zeros_s2(bases, sample)
            assert (result.status, result.count) == (SolverStatus.COMPLETE, 2 * mu * m), k
            assert zerofinder.pencil_count(bases, sample)[0] == 2 * mu * m, k

    @staticmethod
    def miscounted_8_3():
        return [build_basis(2, 8)] * 2, make_sample(tesseral_zonal_rows(8, 3, MISCOUNTED_8_3), [8, 8])

    def test_the_miscounted_8_3_member_is_never_complete_with_a_wrong_count(self):
        result = find_common_zeros_s2(*self.miscounted_8_3())
        assert result.status is not SolverStatus.COMPLETE or result.count == 48

    @pytest.mark.xfail(
        strict=True,
        reason="the gap rule accepts a center whose off-circle margin just clears PENCIL_OFF_CIRCLE",
    )
    def test_the_miscounted_8_3_member_is_counted_right_or_declined(self):
        # The theory and the mesh give 48 zeros.  The pencil accepts 40, with
        # an off-circle margin of 2.05e-4 against PENCIL_OFF_CIRCLE = 1e-4; the
        # solver reports Unconfirmed with the mesh's 48.  A certifier of the
        # count must count 48 here or decline.
        counted = zerofinder.pencil_count(*self.miscounted_8_3())
        assert counted is None or counted[0] == 48
