"""Eigenbasis construction, evaluation, gradients, and pointwise identities."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import legval

from sphere_zeros import (
    SphereInputError,
    build_basis,
    dilation_check,
    eval_basis_many,
    eval_gradient_many,
    zonal,
)
from sphere_zeros import harmonics
from sphere_zeros.harmonics import (
    check_coefficients,
    eval_basis_and_gradient_many,
    gradient_sum_residual,
    legendre_roots,
    orthonormality_quadrature,
    orthonormality_residual,
    random_sphere_points,
    unsold_residual,
)

from oracles import (
    laplacian_residual,
    rotate_coefficients,
    rotation_coefficient_matrix,
    tangent_frames,
)

# Frozen from the quadrature oracle below: int_{S2} z^2 dx = 4*pi/3, so the
# degree-1 functions are sqrt(3/(4*pi)) times the coordinates.
DEGREE1_NORMALIZATION = 0.4886025119029199
INV_SQRT_PI = 0.5641895835477563

NORTH = np.array([0.0, 0.0, 1.0])


def quadrature_oracle_z2() -> float:
    """Independent Gauss-Legendre quadrature of z^2 over the sphere."""
    nodes, weights = np.polynomial.legendre.leggauss(8)
    return 2.0 * math.pi * float(np.sum(weights * nodes**2))


class TestBuildBasis:
    def test_s2_degree3_dimensions(self):
        basis = build_basis(2, 3)
        assert basis.dimension == 7
        assert basis.eigenvalue == 12.0
        assert basis.manifold_volume == pytest.approx(4.0 * math.pi)

    def test_s1_degree5(self):
        basis = build_basis(1, 5)
        assert basis.dimension == 2
        assert basis.eigenvalue == 25.0
        assert basis.manifold_volume == pytest.approx(2.0 * math.pi)

    @pytest.mark.parametrize("m,n,lam", [(1, 2, 2), (2, 2, 6), (7, 2, 56), (4, 1, 16)])
    def test_eigenvalue_formula(self, m, n, lam):
        assert build_basis(n, m).eigenvalue == float(lam)

    def test_rejects_bad_inputs(self):
        with pytest.raises(SphereInputError):
            build_basis(3, 2)
        with pytest.raises(SphereInputError):
            build_basis(2, 0)
        with pytest.raises(SphereInputError):
            build_basis(2, -4)
        with pytest.raises(SphereInputError):
            build_basis(2, 51)

    @pytest.mark.parametrize("sphere_dim", [2.0, np.float64(1.0), True], ids=repr)
    def test_sphere_dim_must_be_an_integer(self, sphere_dim):
        # A float dimension would reach numpy shapes and seeds, which reject it deep inside.
        with pytest.raises(SphereInputError, match=r"sphere_dim must be an integer in \[1, 2\]"):
            build_basis(sphere_dim, 3)

    @pytest.mark.parametrize("sphere_dim", [1, 2])
    def test_derived_fields_keep_their_bits(self, sphere_dim):
        volume = float.fromhex("0x1.921fb54442d18p+2" if sphere_dim == 1 else "0x1.921fb54442d18p+3")
        for m in range(1, harmonics.MAX_DEGREE + 1):
            basis = build_basis(sphere_dim, m)
            assert basis == harmonics.HarmonicBasis(sphere_dim, m)
            assert basis.dimension == (2 if sphere_dim == 1 else 2 * m + 1), m
            assert type(basis.dimension) is int and type(basis.eigenvalue) is float
            assert basis.eigenvalue.hex() == float(m * (m + sphere_dim - 1)).hex(), m
            assert basis.manifold_volume.hex() == volume.hex(), m

    def test_derived_fields_cannot_be_set(self):
        with pytest.raises(TypeError):
            harmonics.HarmonicBasis(2, 3, 7, 10.0, 4.0 * math.pi)
        with pytest.raises(TypeError):
            harmonics.HarmonicBasis(2, 3, dimension=7)

    def test_replace_derives_the_fields_again(self):
        basis = dataclasses.replace(build_basis(2, 3), degree=5)
        assert (basis.dimension, basis.eigenvalue) == (11, 30.0)
        assert basis == build_basis(2, 5)
        with pytest.raises(SphereInputError):
            dataclasses.replace(basis, degree=51)


class TestEvalBasis:
    def test_degree1_normalization_against_quadrature_oracle(self):
        # The oracle fixes the constant: 1 = c^2 * int z^2 => c = sqrt(3/4pi).
        norm = 1.0 / math.sqrt(quadrature_oracle_z2())
        assert norm == pytest.approx(DEGREE1_NORMALIZATION, rel=1e-12)
        basis = build_basis(2, 1)
        rng = np.random.default_rng(3)
        pts = random_sphere_points(2, 25, rng)
        values = eval_basis_many(basis, pts)
        expected = DEGREE1_NORMALIZATION * pts[:, [2, 0, 1]]
        assert np.max(np.abs(values - expected)) < 1e-14

    def test_north_pole_degree1(self):
        basis = build_basis(2, 1)
        values = eval_basis_many(basis, NORTH[None])[0]
        assert values[0] == pytest.approx(DEGREE1_NORMALIZATION, abs=1e-15)
        assert abs(values[1]) < 1e-15 and abs(values[2]) < 1e-15

    def test_s1_degree2_at_zero_angle(self):
        basis = build_basis(1, 2)
        values = eval_basis_many(basis, np.array([[1.0, 0.0]]))[0]
        assert values[0] == pytest.approx(INV_SQRT_PI, abs=1e-15)
        assert values[1] == 0.0

    def test_rejects_off_sphere_points(self):
        basis = build_basis(2, 2)
        with pytest.raises(SphereInputError):
            eval_basis_many(basis, np.array([[0.5, 0.5, 0.5]]))
        with pytest.raises(SphereInputError):
            eval_gradient_many(basis, np.array([[1.0, 1.0, 1.0]]))

    @pytest.mark.parametrize("m", [1, 2, 3, 6, 10])
    def test_sum_of_squares_identity(self, m):
        basis = build_basis(2, m)
        pts = random_sphere_points(2, 100, np.random.default_rng(m))
        values = eval_basis_many(basis, pts)
        target = basis.dimension / basis.manifold_volume
        residual = np.abs(np.einsum("pk,pk->p", values, values) - target)
        assert residual.max() <= 1e-8 * target

    def test_sum_of_squares_high_degree(self):
        # Recurrence-based evaluation stays at machine accuracy up to m = 50.
        for m in (20, 50):
            basis = build_basis(2, m)
            pts = random_sphere_points(2, 50, np.random.default_rng(m))
            values = eval_basis_many(basis, pts)
            target = basis.dimension / basis.manifold_volume
            residual = np.abs(np.einsum("pk,pk->p", values, values) - target)
            assert residual.max() <= 1e-12 * target

    @pytest.mark.parametrize("m", [1, 3, 7])
    def test_scipy_cross_oracle(self, m):
        scipy_special = pytest.importorskip("scipy.special")
        if hasattr(scipy_special, "sph_harm_y"):
            def ylm(l, mu, theta, phi):
                return scipy_special.sph_harm_y(l, mu, theta, phi)
        else:  # pragma: no cover
            def ylm(l, mu, theta, phi):
                return scipy_special.sph_harm(mu, l, phi, theta)
        basis = build_basis(2, m)
        rng = np.random.default_rng(11)
        for point in random_sphere_points(2, 10, rng):
            theta = math.acos(point[2])
            phi = math.atan2(point[1], point[0])
            ours = eval_basis_many(basis, point[None])[0]
            ref = np.empty(2 * m + 1)
            ref[0] = ylm(m, 0, theta, phi).real
            for mu in range(1, m + 1):
                y = ylm(m, mu, theta, phi)
                ref[2 * mu - 1] = math.sqrt(2.0) * (-1) ** mu * y.real
                ref[2 * mu] = math.sqrt(2.0) * (-1) ** mu * y.imag
            assert np.max(np.abs(ours - ref)) < 1e-13


class TestGradients:
    @pytest.mark.parametrize("m", [1, 2, 4, 7, 10])
    def test_gradient_sum_identity(self, m):
        basis = build_basis(2, m)
        pts = random_sphere_points(2, 100, np.random.default_rng(m + 100))
        grads = eval_gradient_many(basis, pts)
        target = basis.eigenvalue * basis.dimension / basis.manifold_volume
        total = np.einsum("pki,pki->p", grads, grads)
        assert np.max(np.abs(total - target)) <= 1e-6 * target

    @pytest.mark.parametrize("sphere_dim, m", [(1, 3), (2, 4), (2, 50)])
    def test_blocked_residuals_match_one_pass(self, sphere_dim, m, monkeypatch):
        # The identity residuals reduce EVAL_BLOCK // N points at a time: 4
        # blocks at m = 50 by default, then 8 blocks and one point per block.
        basis = build_basis(sphere_dim, m)
        pts = random_sphere_points(sphere_dim, 1000, np.random.default_rng(m))
        grads = eval_gradient_many(basis, pts)
        values = eval_basis_many(basis, pts)
        g_target, u_target = basis.gradient_sum_constant, basis.unsold_constant
        g_total = np.einsum("pki,pki->p", grads, grads)
        u_total = np.einsum("pk,pk->p", values, values)
        expected_grad = float(np.max(np.abs(g_total - g_target)) / g_target)
        expected_sum = float(np.max(np.abs(u_total - u_target)) / u_target)
        for block in (harmonics.EVAL_BLOCK, 125 * basis.dimension, basis.dimension):
            monkeypatch.setattr(harmonics, "EVAL_BLOCK", block)
            assert gradient_sum_residual(basis, pts) == expected_grad
            assert unsold_residual(basis, pts) == expected_sum

    @pytest.mark.parametrize("residual", [unsold_residual, gradient_sum_residual])
    def test_identity_checks_need_a_point(self, residual):
        with pytest.raises(SphereInputError, match="at least one point"):
            residual(build_basis(2, 3), np.empty((0, 3)))

    def test_gradients_are_tangential(self):
        for m in (1, 5, 12):
            basis = build_basis(2, m)
            pts = random_sphere_points(2, 40, np.random.default_rng(m))
            grads = eval_gradient_many(basis, pts)
            radial = np.einsum("pki,pi->pk", grads, pts)
            assert np.max(np.abs(radial)) < 1e-10

    def test_degree1_gradient_norm(self):
        # f = sqrt(3/4pi) z has |grad f|^2 = (3/4pi)(1 - z^2).
        basis = build_basis(2, 1)
        pts = random_sphere_points(2, 30, np.random.default_rng(9))
        grads = eval_gradient_many(basis, pts)[:, 0, :]
        expected = (3.0 / (4.0 * math.pi)) * (1.0 - pts[:, 2] ** 2)
        assert np.max(np.abs(np.einsum("pi,pi->p", grads, grads) - expected)) < 1e-14

    def test_s1_gradient_norm(self):
        # d/dt cos(3t)/sqrt(pi) has norm 3|sin 3t|/sqrt(pi).
        basis = build_basis(1, 3)
        t = np.linspace(0.0, 2.0 * math.pi, 17)
        pts = np.stack([np.cos(t), np.sin(t)], axis=1)
        grads = eval_gradient_many(basis, pts)[:, 0, :]
        norms = np.linalg.norm(grads, axis=1)
        assert np.max(np.abs(norms - 3.0 * np.abs(np.sin(3.0 * t)) / math.sqrt(math.pi))) < 1e-12

    def test_pole_gradient_is_finite_and_correct(self):
        basis = build_basis(2, 4)
        grads = eval_gradient_many(basis, NORTH[None])[0]
        assert np.all(np.isfinite(grads))
        total = float(np.einsum("ki,ki->", grads, grads))
        target = basis.eigenvalue * basis.dimension / basis.manifold_volume
        assert total == pytest.approx(target, rel=1e-12)


class TestTangentFrames:
    @pytest.mark.parametrize("sphere_dim", [1, 2])
    def test_orthonormal_and_tangent(self, sphere_dim):
        rng = np.random.default_rng(sphere_dim)
        axes = np.eye(sphere_dim + 1)
        pts = np.concatenate([axes, -axes, random_sphere_points(sphere_dim, 50, rng)])
        frames = tangent_frames(pts)
        assert frames.shape == (pts.shape[0], sphere_dim, sphere_dim + 1)
        gram = np.einsum("pij,pkj->pik", frames, frames)
        assert np.max(np.abs(gram - np.eye(sphere_dim))) <= 1e-15
        assert np.max(np.abs(np.einsum("pij,pj->pi", frames, pts))) <= 1e-15


class TestCoefficientChecks:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficients_rejected(self, bad):
        coeffs = np.ones(7)
        coeffs[3] = bad
        with pytest.raises(SphereInputError):
            check_coefficients(build_basis(2, 3), coeffs)


NAN_POINT = np.array([math.nan, 0.0, 0.0])


class TestNonFiniteGeometry:
    # NaN compares False with every tolerance, so each check must reject
    # what is not within it rather than accept what is not beyond it.
    @pytest.mark.parametrize(
        "call",
        [
            lambda b: eval_basis_many(b, NAN_POINT[None]),
            lambda b: zonal(b, NAN_POINT),
            lambda b: dilation_check(b, NAN_POINT),
        ],
        ids=["eval_basis_many", "zonal", "dilation_check"],
    )
    def test_nan_input_rejected(self, call):
        with pytest.raises(SphereInputError):
            call(build_basis(2, 3))


class TestPointChecks:
    # zonal and dilation_check hand their point to the kernel's own check,
    # which must reject it before either kernel runs.
    @pytest.mark.parametrize(
        "point",
        [[0.0, 0.0, 2.0], [math.nan, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0], [[0.0, 0.0, 1.0]]],
        ids=["off-sphere", "nan", "shape-4", "shape-1x3"],
    )
    @pytest.mark.parametrize("call", [zonal, dilation_check], ids=["zonal", "dilation_check"])
    def test_bad_point_rejected_before_any_kernel(self, call, point, monkeypatch):
        def kernel(*args, **kwargs):
            raise AssertionError("a kernel ran on an unchecked point")

        monkeypatch.setattr(harmonics, "_eval_s1", kernel)
        monkeypatch.setattr(harmonics, "_eval_s2", kernel)
        with pytest.raises(SphereInputError):
            call(build_basis(2, 3), np.array(point))


class TestLaplacianStencil:
    def test_stencil_order_on_coordinate_function(self):
        # Validates the finite-difference stencil itself on u = sqrt(3/4pi) z.
        basis = build_basis(2, 1)
        coeffs = np.array([1.0, 0.0, 0.0])
        rng = np.random.default_rng(1)
        for point in random_sphere_points(2, 10, rng):
            value = DEGREE1_NORMALIZATION * point[2]
            assert laplacian_residual(basis, coeffs, point) <= 1e-4 * (1.0 + abs(2.0 * value))

    def test_zero_function(self):
        basis = build_basis(2, 3)
        assert laplacian_residual(basis, np.zeros(7), NORTH) == 0.0

    @pytest.mark.parametrize("sphere_dim,m", [(2, 4), (2, 8), (1, 4), (1, 10)])
    def test_random_mix(self, sphere_dim, m):
        basis = build_basis(sphere_dim, m)
        rng = np.random.default_rng(m * 7 + sphere_dim)
        coeffs = rng.standard_normal(basis.dimension)
        pts = random_sphere_points(sphere_dim, 20, rng)
        values = eval_basis_many(basis, pts) @ coeffs
        for point, value in zip(pts, values):
            residual = laplacian_residual(basis, coeffs, point)
            assert residual <= 1e-4 * (1.0 + abs(basis.eigenvalue * value))


class TestZonal:
    def test_north_pole_degree1_is_z(self):
        basis = build_basis(2, 1)
        coeffs = zonal(basis, NORTH)
        assert np.max(np.abs(coeffs - np.array([1.0, 0.0, 0.0]))) < 1e-14

    @pytest.mark.parametrize("m", range(1, 9))
    def test_peak_value(self, m):
        basis = build_basis(2, m)
        rng = np.random.default_rng(m)
        axis = random_sphere_points(2, 1, rng)[0]
        coeffs = zonal(basis, axis)
        assert np.linalg.norm(coeffs) == pytest.approx(1.0, abs=1e-12)
        peak = float(eval_basis_many(basis, axis[None])[0] @ coeffs)
        assert peak == pytest.approx(math.sqrt((2 * m + 1) / (4.0 * math.pi)), rel=1e-12)

    def test_legendre_roots_match_gauss_nodes(self):
        for m in range(1, 51):
            nodes = np.polynomial.legendre.leggauss(m)[0]
            assert np.max(np.abs(legendre_roots(m) - nodes)) <= 1e-13, m

    @pytest.mark.parametrize("degree", [harmonics.MAX_DEGREE + 1, True], ids=["51", "True"])
    def test_legendre_roots_reject_a_bad_degree(self, degree, monkeypatch):
        # Rejected before leggauss builds its dense degree x degree companion matrix.
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", None)
        with pytest.raises(SphereInputError, match="degree must be an integer"):
            legendre_roots(degree)

    def test_matches_legendre_profile(self):
        m = 4
        basis = build_basis(2, m)
        coeffs = zonal(basis, NORTH)
        pts = random_sphere_points(2, 30, np.random.default_rng(0))
        values = eval_basis_many(basis, pts) @ coeffs
        expected = math.sqrt((2 * m + 1) / (4.0 * math.pi)) * legval(pts[:, 2], np.eye(m + 1)[m])
        assert np.max(np.abs(values - expected)) < 1e-13

    def test_meridian_zeros_at_legendre_roots(self):
        # Bisection oracle for the roots of P_2: cos(theta) = +-1/sqrt(3).
        basis = build_basis(2, 2)
        coeffs = zonal(basis, NORTH)
        grid = np.linspace(-1.0, 1.0, 400)
        values = 0.5 * (3.0 * grid**2 - 1.0)
        roots = []
        for lo, hi in zip(grid[:-1], grid[1:]):
            flo = 0.5 * (3.0 * lo**2 - 1.0)
            if flo * 0.5 * (3.0 * hi**2 - 1.0) < 0.0:
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if flo * (0.5 * (3.0 * mid**2 - 1.0)) <= 0.0:
                        hi = mid
                    else:
                        lo = mid
                        flo = 0.5 * (3.0 * lo**2 - 1.0)
                roots.append(0.5 * (lo + hi))
        assert np.allclose(np.abs(roots), 1.0 / math.sqrt(3.0), atol=1e-12)
        for z in roots:
            point = np.array([math.sqrt(1.0 - z**2), 0.0, z])
            assert abs(float(eval_basis_many(basis, point[None])[0] @ coeffs)) < 1e-12
        del values

    def test_rejects_circle(self):
        with pytest.raises(SphereInputError):
            zonal(build_basis(1, 3), np.array([1.0, 0.0]))


class TestOrthonormality:
    @pytest.mark.parametrize("sphere_dim,m", [(2, 1), (2, 2), (2, 5), (2, 12), (2, 50), (1, 3), (1, 50)])
    def test_gram_matrix_is_identity(self, sphere_dim, m):
        assert orthonormality_residual(build_basis(sphere_dim, m)) <= 1e-8


class TestKernelAndEquivariance:
    def test_reproducing_kernel_depends_only_on_inner_product(self):
        m = 5
        basis = build_basis(2, m)
        rng = np.random.default_rng(4)
        x = random_sphere_points(2, 40, rng)
        # Rotate both arguments by a common rotation: <Rx, Ry> = <x, y>.
        rotation = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        y = random_sphere_points(2, 40, rng)
        k1 = np.einsum("pk,pk->p", eval_basis_many(basis, x), eval_basis_many(basis, y))
        k2 = np.einsum(
            "pk,pk->p", eval_basis_many(basis, x @ rotation.T), eval_basis_many(basis, y @ rotation.T)
        )
        assert np.max(np.abs(k1 - k2)) < 1e-8

    def test_kernel_matches_legendre(self):
        m = 6
        basis = build_basis(2, m)
        rng = np.random.default_rng(5)
        x = random_sphere_points(2, 30, rng)
        y = random_sphere_points(2, 30, rng)
        kernel = np.einsum("pk,pk->p", eval_basis_many(basis, x), eval_basis_many(basis, y))
        cosines = np.einsum("pi,pi->p", x, y)
        expected = (2 * m + 1) / (4.0 * math.pi) * legval(cosines, np.eye(m + 1)[m])
        assert np.max(np.abs(kernel - expected)) < 1e-12

    def test_rotation_leaves_pointwise_sums_unchanged(self):
        basis = build_basis(2, 7)
        rng = np.random.default_rng(6)
        rotation = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        pts = random_sphere_points(2, 50, rng)
        v1 = eval_basis_many(basis, pts)
        v2 = eval_basis_many(basis, pts @ rotation.T)
        s1 = np.einsum("pk,pk->p", v1, v1)
        s2 = np.einsum("pk,pk->p", v2, v2)
        assert np.max(np.abs(s1 - s2)) < 1e-10
        g1 = eval_gradient_many(basis, pts)
        g2 = eval_gradient_many(basis, pts @ rotation.T)
        t1 = np.einsum("pki,pki->p", g1, g1)
        t2 = np.einsum("pki,pki->p", g2, g2)
        assert np.max(np.abs(t1 - t2)) < 1e-10

    def test_rotated_coefficients_match_rotated_evaluation(self):
        basis = build_basis(2, 4)
        rng = np.random.default_rng(8)
        rotation = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        coeffs = rng.standard_normal(basis.dimension)
        rotated = rotate_coefficients(basis, coeffs, rotation)
        pts = random_sphere_points(2, 25, rng)
        lhs = eval_basis_many(basis, pts) @ rotated
        rhs = eval_basis_many(basis, pts @ rotation) @ coeffs   # u(R^T x)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_representation_matrix_is_orthogonal(self):
        basis = build_basis(2, 3)
        rng = np.random.default_rng(10)
        rotation = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        rep = rotation_coefficient_matrix(basis, rotation)
        assert np.max(np.abs(rep @ rep.T - np.eye(basis.dimension))) < 1e-10


# Reference kernels: verbatim copies of the per-order Legendre recurrence, the
# S1/S2 evaluation with the (P, N, n+1) gradient tensor and the row contraction
# (ascending-k values, einsum over that tensor).  The kernel in harmonics
# must reproduce them bit for bit.  dQ/dz comes in two forms: the bit
# reference reads it off Q one order up, as the kernel does; the per-order
# derivative recurrence is kept as an independent oracle of its accuracy.
def _ref_legendre_q_block(degree: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = degree
    npts = z.shape[0]
    q_out = np.empty((m + 1, npts))
    dq_out = np.empty((m + 1, npts))
    diag = math.sqrt(1.0 / (4.0 * math.pi))
    for mu in range(m + 1):
        if mu > 0:
            diag *= math.sqrt((2.0 * mu + 1.0) / (2.0 * mu))
        q_prev = np.full(npts, diag)
        dq_prev = np.zeros(npts)
        if mu == m:
            q_out[mu], dq_out[mu] = q_prev, dq_prev
            continue
        c = math.sqrt(2.0 * mu + 3.0)
        q_curr = c * z * q_prev
        dq_curr = c * q_prev
        for ell in range(mu + 2, m + 1):
            a = math.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - mu * mu))
            b = math.sqrt(((ell - 1.0) ** 2 - mu * mu) / (4.0 * (ell - 1.0) ** 2 - 1.0))
            q_next = a * (z * q_curr - b * q_prev)
            dq_next = a * (q_curr + z * dq_curr - b * dq_prev)
            q_prev, q_curr = q_curr, q_next
            dq_prev, dq_curr = dq_curr, dq_next
        q_out[mu], dq_out[mu] = q_curr, dq_curr
    return q_out, dq_out


def _ref_dq_from_q(degree: int, q: np.ndarray) -> np.ndarray:
    """dQ/dz of order 0, then sqrt(2) * dQ/dz of the orders 1..m, read off Q.

    Q[mu] = N_m^mu * d^mu P_m / dz^mu and N_m^mu / N_m^(mu+1) =
    sqrt((m - mu)(m + mu + 1)), so dQ[mu]/dz = sqrt((m - mu)(m + mu + 1)) *
    Q[mu + 1] and dQ[m]/dz = 0; the cos/sin rows round as r * (sqrt(2) * Q).
    """
    m = degree
    out = np.zeros_like(q)
    for mu in range(m):
        r = math.sqrt((m - mu) * (m + mu + 1.0))
        out[mu] = r * q[1] if mu == 0 else r * (math.sqrt(2.0) * q[mu + 1])
    return out


def _ref_eval_s2(degree: int, pts: np.ndarray, want_gradient: bool, dq_recurrence: bool = False):
    """Values and gradients (P, N), (P, N, 3); dQ/dz from the derivative
    recurrence if ``dq_recurrence``, else read off Q as the kernel does."""
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    q, dq = _ref_legendre_q_block(degree, z)
    root2 = math.sqrt(2.0)
    if dq_recurrence:
        dqc_rows = np.concatenate([dq[:1], root2 * dq[1:]])
    else:
        dqc_rows = _ref_dq_from_q(degree, q)
    npts = pts.shape[0]
    nfun = 2 * degree + 1
    vals = np.empty((npts, nfun))
    vals[:, 0] = q[0]
    grads = None
    if want_gradient:
        grads = np.zeros((npts, nfun, 3))
        grads[:, 0, 2] = dqc_rows[0]
    cr = np.ones(npts)
    ci = np.zeros(npts)
    for mu in range(1, degree + 1):
        cr_prev, ci_prev = cr, ci
        cr = cr_prev * x - ci_prev * y
        ci = ci_prev * x + cr_prev * y
        qc = root2 * q[mu]
        vals[:, 2 * mu - 1] = qc * cr
        vals[:, 2 * mu] = qc * ci
        if want_gradient:
            dqc = dqc_rows[mu]
            grads[:, 2 * mu - 1, 0] = qc * mu * cr_prev
            grads[:, 2 * mu - 1, 1] = -qc * mu * ci_prev
            grads[:, 2 * mu - 1, 2] = dqc * cr
            grads[:, 2 * mu, 0] = qc * mu * ci_prev
            grads[:, 2 * mu, 1] = qc * mu * cr_prev
            grads[:, 2 * mu, 2] = dqc * ci
    if want_gradient:
        radial = np.einsum("pki,pi->pk", grads, pts)
        grads -= radial[:, :, None] * pts[:, None, :]
    return vals, grads


def _ref_eval_s1(degree: int, pts: np.ndarray, want_gradient: bool):
    m = degree
    w = (pts[:, 0] + 1j * pts[:, 1]) ** m
    inv_root_pi = 1.0 / math.sqrt(math.pi)
    vals = np.empty((pts.shape[0], 2))
    vals[:, 0] = w.real * inv_root_pi
    vals[:, 1] = w.imag * inv_root_pi
    grads = None
    if want_gradient:
        tangent = np.stack([-pts[:, 1], pts[:, 0]], axis=1)
        grads = np.empty((pts.shape[0], 2, 2))
        grads[:, 0, :] = (-m * inv_root_pi * w.imag)[:, None] * tangent
        grads[:, 1, :] = (m * inv_root_pi * w.real)[:, None] * tangent
    return vals, grads


def _ref_newton_rows(v: np.ndarray, g: np.ndarray, c: np.ndarray):
    # Row values summed over k in ascending order from zero: an order that
    # does not depend on the number of points, unlike BLAS's ``v @ c.T``.
    vals = np.zeros((v.shape[0], c.shape[0]))
    for k in range(c.shape[1]):
        vals += v[:, k, None] * c[None, :, k]
    return vals, np.einsum("pkj,rk->prj", g, c)


def _points_with_poles(count: int, seed: int) -> np.ndarray:
    pts = random_sphere_points(2, count, np.random.default_rng(seed))
    pts[: min(count, 2)] = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]][: min(count, 2)]
    return pts


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


BATCH_SIZES = [1, 2, 3, 7, 64, 401, 4001]


class TestKernelMatchesReference:
    @pytest.mark.parametrize("m", list(range(1, 13)) + [16, 24, 50])
    def test_values_and_full_gradients(self, m):
        basis = build_basis(2, m)
        for count in BATCH_SIZES:
            pts = _points_with_poles(count, seed=1000 * m + count)
            ref_vals, ref_grads = _ref_eval_s2(m, pts, want_gradient=True)
            vals, grads = eval_basis_and_gradient_many(basis, pts)
            assert _same_bits(vals, ref_vals), (m, count)
            assert _same_bits(grads, ref_grads), (m, count)
            assert _same_bits(eval_basis_many(basis, pts), ref_vals), (m, count)
            assert _same_bits(eval_gradient_many(basis, pts), ref_grads), (m, count)

    @pytest.mark.parametrize("m", range(1, 13))
    @pytest.mark.parametrize("r", [1, 2])
    def test_row_contracted_gradients(self, m, r):
        basis = build_basis(2, m)
        rng = np.random.default_rng(10 * m + r)
        # Rows sliced out of a wider block, as for a mixed-degree system.
        rows = rng.standard_normal((r, basis.dimension + 3))[:, : basis.dimension]
        rows[0, 0] = -abs(rows[0, 0])     # zero gradients at the poles times it give -0.0
        for count in BATCH_SIZES:
            pts = _points_with_poles(count, seed=100 * m + count)
            ref_vals, ref_grads = _ref_newton_rows(*_ref_eval_s2(m, pts, True), rows)
            vals, grads = eval_basis_and_gradient_many(basis, pts, rows=rows)
            assert _same_bits(vals, ref_vals), (m, r, count)
            assert _same_bits(grads, ref_grads), (m, r, count)
            assert _same_bits(eval_basis_many(basis, pts, rows=rows), ref_vals), (m, r, count)

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 50])
    def test_circle_kernel(self, m):
        basis = build_basis(1, m)
        t = np.random.default_rng(m).uniform(0.0, 2.0 * math.pi, 401)
        pts = np.stack([np.cos(t), np.sin(t)], axis=1)
        pts[:4] = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
        ref_vals, ref_grads = _ref_eval_s1(m, pts, want_gradient=True)
        vals, grads = eval_basis_and_gradient_many(basis, pts)
        assert _same_bits(vals, ref_vals) and _same_bits(grads, ref_grads)
        rows = np.array([[0.3, -1.7]])
        ref = _ref_newton_rows(ref_vals, ref_grads, rows)
        ours = eval_basis_and_gradient_many(basis, pts, rows=rows)
        assert _same_bits(ours[0], ref[0]) and _same_bits(ours[1], ref[1])
        assert _same_bits(eval_basis_many(basis, pts, rows=rows), ref[0])

    @pytest.mark.parametrize("m", [1, 7])
    def test_block_size_does_not_change_bits(self, m, monkeypatch):
        basis = build_basis(2, m)
        pts = _points_with_poles(401, seed=m)
        rows = np.random.default_rng(m).standard_normal((2, basis.dimension))
        whole = eval_basis_and_gradient_many(basis, pts), eval_basis_and_gradient_many(basis, pts, rows=rows)
        monkeypatch.setattr(harmonics, "EVAL_BLOCK", 5 * basis.dimension)
        split = eval_basis_and_gradient_many(basis, pts), eval_basis_and_gradient_many(basis, pts, rows=rows)
        for a, b in zip(whole, split):
            assert _same_bits(a[0], b[0]) and _same_bits(a[1], b[1])

    def test_rows_of_wrong_width_rejected(self):
        basis = build_basis(2, 3)
        for evaluate in (eval_basis_many, eval_basis_and_gradient_many):
            with pytest.raises(SphereInputError):
                evaluate(basis, _points_with_poles(5, seed=0), rows=np.ones((2, 6)))


class TestDerivativeFromValues:
    """dQ/dz is read off Q one order up; gradient calls run no second recurrence."""

    @pytest.mark.parametrize("m", range(1, 51))
    def test_gradients_match_the_derivative_recurrence(self, m):
        basis = build_basis(2, m)
        pts = _points_with_poles(200, seed=7 * m)
        ref = _ref_eval_s2(m, pts, want_gradient=True, dq_recurrence=True)[1]
        scale = math.sqrt(basis.gradient_sum_constant)
        assert np.max(np.abs(eval_gradient_many(basis, pts) - ref)) <= 2e-14 * scale

    @pytest.mark.parametrize("m", [1, 2, 5, 12, 24, 50])
    def test_gradients_match_central_differences(self, m):
        # On the great circle cos(h) x + sin(h) t a basis function is a
        # trigonometric polynomial of degree m bounded by A = sqrt(N / 4 pi),
        # so by Bernstein's inequality its third derivative is at most m^3 A
        # and the central difference misses grad . t by at most m^3 A h^2 / 6,
        # plus the rounding of the two values over 2h, about m eps A / h
        # (allowed 16 times that).
        basis = build_basis(2, m)
        pts = _points_with_poles(200, seed=m)
        grads = eval_gradient_many(basis, pts)
        bound, h = basis.embedding_radius, 1e-4 / m
        tol = m**3 * bound * h * h / 6.0 + 16.0 * m * np.finfo(float).eps * bound / h
        for t in tangent_frames(pts).transpose(1, 0, 2):
            ahead = eval_basis_many(basis, math.cos(h) * pts + math.sin(h) * t)
            behind = eval_basis_many(basis, math.cos(h) * pts - math.sin(h) * t)
            slope = np.einsum("pki,pi->pk", grads, t)
            assert np.max(np.abs((ahead - behind) / (2.0 * h) - slope)) <= tol

    def test_a_gradient_call_runs_one_recurrence_per_block(self, monkeypatch):
        basis = build_basis(2, 24)
        pts = _points_with_poles(2000, seed=24)
        shapes = []
        legendre = harmonics._legendre_q_block
        def counted(degree, z):
            q = legendre(degree, z)
            shapes.append(q.shape)
            return q

        monkeypatch.setattr(harmonics, "_legendre_q_block", counted)
        eval_gradient_many(basis, pts)
        blocks = harmonics.point_blocks(basis, len(pts))
        assert len(blocks) == 3
        assert shapes == [(25, len(pts[block])) for block in blocks]


def _ref_gram(basis):
    """The Gram over the whole grid from ``eval_basis_many``: the reference for the half grid."""
    pts, wts = orthonormality_quadrature(basis)
    values = eval_basis_many(basis, pts)
    return (values * wts[:, None]).T @ values


def _ref_orthonormality_residual(basis):
    """``orthonormality_residual`` on the full grid, with the values from ``eval_basis_many``."""
    return float(np.max(np.abs(_ref_gram(basis) - np.eye(basis.dimension))))


def _parity_signs(basis):
    """(-1)^(m - mu_k) for S2 basis function k of order mu_k: its sign under z -> -z."""
    return (-1.0) ** (basis.degree - np.arange(1, basis.dimension + 1) // 2)


def _half_grid_gram(basis):
    """The S2 Gram of ``orthonormality_residual`` from ``eval_basis_many`` on the rows z <= 0:
    twice the strictly southern Gram on pairs of equal parity, 0 across parities,
    plus the equator's Gram (no rows when m is odd)."""
    m = basis.degree
    pts, wts = orthonormality_quadrature(basis)
    south, half = (m + 1) // 2 * (4 * m + 4), (m // 2 + 1) * (4 * m + 4)
    values = eval_basis_many(basis, pts[:half])
    gram = (values[:south] * wts[:south, None]).T @ values[:south]
    signs = _parity_signs(basis)
    gram = np.where(signs[:, None] == signs, gram + gram, 0.0)
    gram += (values[south:] * wts[south:half, None]).T @ values[south:]
    return gram


def _ref_rotation_coefficient_matrix(basis, rot):
    """``rotation_coefficient_matrix`` with the values from ``eval_basis_many``, kept verbatim."""
    pts, wts = orthonormality_quadrature(basis)
    values = eval_basis_many(basis, pts)
    rotated_values = eval_basis_many(basis, pts @ rot)
    return (values * wts[:, None]).T @ rotated_values


class TestQuadratureGrid:
    @pytest.mark.parametrize("m", [*range(1, 13), 16, 24, 49, 50])
    def test_once_per_latitude_values_have_the_bits_of_eval_basis_many(self, m):
        basis = build_basis(2, m)
        wts, values = harmonics._half_grid_values(basis)
        ref_pts, ref_wts = orthonormality_quadrature(basis)
        assert len(values) == (m // 2 + 1) * (4 * m + 4)
        assert _same_bits(wts, ref_wts[: len(values)])
        assert _same_bits(values, eval_basis_many(basis, ref_pts[: len(values)]))

    def test_the_grid_and_the_basis_are_mirrored_in_z_to_the_bit(self):
        for m in range(1, 51):
            basis = build_basis(2, m)
            pts, wts = orthonormality_quadrature(basis)
            grid = pts.reshape(m + 1, 4 * m + 4, 3)
            south = (m + 1) // 2
            assert _same_bits(grid[..., :2], grid[::-1, :, :2]), m
            assert _same_bits(wts, wts.reshape(m + 1, -1)[::-1].reshape(-1)), m
            assert _same_bits(grid[:south, :, 2], -grid[::-1][:south, :, 2]), m
            values = eval_basis_many(basis, pts).reshape(m + 1, 4 * m + 4, -1)
            signs = _parity_signs(basis)
            assert _same_bits(values[:south] * signs, values[::-1][:south]), m
            if m % 2 == 0:
                assert np.all(grid[m // 2, :, 2] == 0.0), m
                assert np.all(values[m // 2][:, signs < 0] == 0.0), m

    def test_half_grid_gram_matches_the_full_grid_gram(self):
        for m in range(1, 51):
            basis = build_basis(2, m)
            gram = harmonics._orthonormality_gram(basis)
            assert _same_bits(gram, _half_grid_gram(basis)), m
            signs = _parity_signs(basis)
            assert np.max(np.abs(gram - _ref_gram(basis))) <= 2e-14, m
            assert np.all(gram[signs[:, None] != signs] == 0.0), m

    @pytest.mark.parametrize("sphere_dim, m", [(2, 1), (2, 2), (2, 5), (2, 12), (2, 50), (1, 3)])
    def test_residual_and_rotation_matrix_keep_their_bits(self, sphere_dim, m):
        basis = build_basis(sphere_dim, m)
        if sphere_dim == 1:
            assert orthonormality_residual(basis) == _ref_orthonormality_residual(basis)
        else:
            gram = _half_grid_gram(basis)
            assert orthonormality_residual(basis) == float(np.max(np.abs(gram - np.eye(2 * m + 1))))
        rng = np.random.default_rng(m)
        rot = np.linalg.qr(rng.standard_normal((sphere_dim + 1, sphere_dim + 1)))[0]
        ref = _ref_rotation_coefficient_matrix(basis, rot)
        assert _same_bits(rotation_coefficient_matrix(basis, rot), ref)

    @pytest.mark.parametrize("m, latitudes", [(50, 26), (49, 25)])
    def test_recurrence_runs_once_on_the_latitudes(self, m, latitudes, monkeypatch):
        sizes, points = [], []
        legendre, kernel = harmonics._legendre_q_block, harmonics._eval_s2
        def counted(degree, z):
            sizes.append(len(z))
            return legendre(degree, z)

        def counted_kernel(degree, pts, want_gradient, q=None):
            points.append(len(pts))
            return kernel(degree, pts, want_gradient, q)

        monkeypatch.setattr(harmonics, "_legendre_q_block", counted)
        monkeypatch.setattr(harmonics, "_eval_s2", counted_kernel)
        orthonormality_residual(build_basis(2, m))
        assert sizes == [latitudes]
        assert sum(points) == latitudes * (4 * m + 4)
