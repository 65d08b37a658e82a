"""Eigenbasis construction, evaluation, gradients, and pointwise identities."""

import math

import numpy as np
import pytest

from sphere_zeros import (
    SphereInputError,
    build_basis,
    eval_basis,
    eval_basis_many,
    eval_gradient,
    eval_gradient_many,
    laplacian_residual,
    zonal,
)
from sphere_zeros.harmonics import (
    legendre_roots,
    legendre_values,
    orthonormality_residual,
    random_sphere_points,
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
        values = eval_basis(basis, NORTH)
        assert values[0] == pytest.approx(DEGREE1_NORMALIZATION, abs=1e-15)
        assert abs(values[1]) < 1e-15 and abs(values[2]) < 1e-15

    def test_s1_degree2_at_zero_angle(self):
        basis = build_basis(1, 2)
        values = eval_basis(basis, np.array([1.0, 0.0]))
        assert values[0] == pytest.approx(INV_SQRT_PI, abs=1e-15)
        assert values[1] == 0.0

    def test_rejects_off_sphere_points(self):
        basis = build_basis(2, 2)
        with pytest.raises(SphereInputError):
            eval_basis(basis, np.array([0.5, 0.5, 0.5]))
        with pytest.raises(SphereInputError):
            eval_gradient(basis, np.array([1.0, 1.0, 1.0]))

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
            ours = eval_basis(basis, point)
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
        grads = eval_gradient(basis, NORTH)
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
            laplacian_residual(build_basis(2, 3), coeffs, NORTH)


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
        peak = float(eval_basis(basis, axis) @ coeffs)
        assert peak == pytest.approx(math.sqrt((2 * m + 1) / (4.0 * math.pi)), rel=1e-12)

    def test_legendre_roots_match_gauss_nodes(self):
        for m in range(1, 51):
            nodes = np.polynomial.legendre.leggauss(m)[0]
            assert np.max(np.abs(legendre_roots(m) - nodes)) <= 1e-13, m

    def test_matches_legendre_profile(self):
        m = 4
        basis = build_basis(2, m)
        coeffs = zonal(basis, NORTH)
        pts = random_sphere_points(2, 30, np.random.default_rng(0))
        values = eval_basis_many(basis, pts) @ coeffs
        expected = math.sqrt((2 * m + 1) / (4.0 * math.pi)) * legendre_values(m, pts[:, 2])
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
            assert abs(float(eval_basis(basis, point) @ coeffs)) < 1e-12
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
        expected = (2 * m + 1) / (4.0 * math.pi) * legendre_values(m, np.einsum("pi,pi->p", x, y))
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
