"""Orthonormal real Laplace eigenbases on the unit circle S1 and the unit sphere S2.

Conventions used throughout the package:

* Points are unit vectors in R^(n+1): length-2 arrays for S1, length-3 for S2.
* The degree-m eigenspace has eigenvalue lam = m*(m + n - 1) and dimension
  N = 2 for S1, N = 2m+1 for S2.
* Bases are orthonormal for the *unnormalized* surface measure, so the
  squared pointwise sum of the basis is N / vol(M) with vol(S1) = 2*pi and
  vol(S2) = 4*pi.
* S1 basis order: [cos(m*t), sin(m*t)] / sqrt(pi).
* S2 basis order: index 0 is the axis-symmetric function about the z-axis,
  then for mu = 1..m a cos(mu*phi)-type and a sin(mu*phi)-type function.

Any orthonormal basis of the eigenspace differs from this one by an
orthogonal change of frame, and every quantity reported by this package
(pointwise sums of squares, gradient sums, zero sets of spanned functions,
volumes) is invariant under that change, so the concrete choice is a pure
implementation detail.

The S2 functions are evaluated through stable normalized recurrences on the
polynomial part in z, multiplied by real/imaginary parts of (x + i*y)^mu.
This form has no pole singularities, works at the poles, and gives exact
ambient polynomial gradients that are projected to the tangent plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

UNIT_NORM_TOL = 1e-12
MAX_DEGREE = 50
LAPLACIAN_STEP = 1e-4         # geodesic step of the laplacian_residual stencil


class SphereInputError(ValueError):
    """Raised for points off the sphere or invalid basis parameters."""


@dataclass(frozen=True)
class HarmonicBasis:
    """An orthonormal real eigenbasis of the Laplacian on S1 or S2.

    Attributes:
        sphere_dim: intrinsic dimension n, 1 or 2.
        degree: polynomial degree m >= 1.
        dimension: N, number of basis functions (2 on S1, 2m+1 on S2).
        eigenvalue: lam = m*(m + n - 1), exact integer arithmetic then cast.
        manifold_volume: 2*pi for S1, 4*pi for S2.
    """

    sphere_dim: int
    degree: int
    dimension: int
    eigenvalue: float
    manifold_volume: float

    @property
    def ambient_dim(self) -> int:
        return self.sphere_dim + 1

    @property
    def unsold_constant(self) -> float:
        """Pointwise value of sum_i f_i(x)^2, equal to N / vol(M)."""
        return self.dimension / self.manifold_volume

    @property
    def gradient_sum_constant(self) -> float:
        """Pointwise value of sum_i |grad f_i(x)|^2, equal to lam*N / vol(M)."""
        return self.eigenvalue * self.dimension / self.manifold_volume

    @property
    def dilation_constant(self) -> float:
        """Metric dilation lam*N / (n*vol(M)) of the joint eigenbasis map."""
        return self.eigenvalue * self.dimension / (self.sphere_dim * self.manifold_volume)

    @property
    def embedding_radius(self) -> float:
        """Radius sqrt(N / vol(M)) of the sphere containing the joint image."""
        return math.sqrt(self.dimension / self.manifold_volume)


def build_basis(sphere_dim: int, degree: int) -> HarmonicBasis:
    """Construct the degree-m eigenbasis descriptor for S1 or S2.

    Rejects sphere_dim outside {1, 2} and degree < 1 (the constant
    eigenfunction with eigenvalue 0 is excluded).
    """
    if sphere_dim not in (1, 2):
        raise SphereInputError(f"sphere_dim must be 1 or 2, got {sphere_dim}")
    if not isinstance(degree, (int, np.integer)) or degree < 1:
        raise SphereInputError(f"degree must be an integer >= 1, got {degree}")
    if degree > MAX_DEGREE:
        raise SphereInputError(f"degree {degree} exceeds supported maximum {MAX_DEGREE}")
    degree = int(degree)
    if sphere_dim == 1:
        n_funcs = 2
        volume = 2.0 * math.pi
    else:
        n_funcs = 2 * degree + 1
        volume = 4.0 * math.pi
    eigenvalue = float(degree * (degree + sphere_dim - 1))
    return HarmonicBasis(
        sphere_dim=sphere_dim,
        degree=degree,
        dimension=n_funcs,
        eigenvalue=eigenvalue,
        manifold_volume=volume,
    )


def as_sphere_point(point, sphere_dim: int) -> np.ndarray:
    """Validate and return a unit vector of the right ambient dimension."""
    p = np.asarray(point, dtype=float)
    if p.shape != (sphere_dim + 1,):
        raise SphereInputError(
            f"expected a {sphere_dim + 1}-vector for S{sphere_dim}, got shape {p.shape}"
        )
    if abs(np.dot(p, p) - 1.0) > 2.0 * UNIT_NORM_TOL:
        raise SphereInputError(f"point is not on the unit sphere: |x| = {np.linalg.norm(p)!r}")
    return p


def _check_points(points: np.ndarray, sphere_dim: int) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != sphere_dim + 1:
        raise SphereInputError(f"expected points of shape (P, {sphere_dim + 1}), got {pts.shape}")
    err = np.abs(np.einsum("pi,pi->p", pts, pts) - 1.0)
    if err.size and err.max() > 2.0 * UNIT_NORM_TOL:
        raise SphereInputError(f"points not on the unit sphere (max |x|^2 - 1 = {err.max():.3e})")
    return pts


def random_sphere_points(sphere_dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points on S^n via normalized Gaussians, shape (count, n+1)."""
    v = rng.standard_normal((count, sphere_dim + 1))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _legendre_q_block(degree: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized Legendre polynomial parts Q and dQ/dz, rows mu = 0..m.

    Q[mu] is the degree-(m - mu) polynomial in z with
    Pbar_m^mu(cos t) = sin(t)^mu * Q[mu](cos t), where Pbar is normalized so
    the resulting basis is orthonormal for the unnormalized surface measure.
    Three-term recurrences in the degree keep this stable far beyond m = 50.
    """
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


def _eval_s2(degree: int, pts: np.ndarray, want_gradient: bool):
    """Values (P, N) and optionally tangential gradients (P, N, 3) on S2."""
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    q, dq = _legendre_q_block(degree, z)
    npts = pts.shape[0]
    nfun = 2 * degree + 1
    vals = np.empty((npts, nfun))
    vals[:, 0] = q[0]
    root2 = math.sqrt(2.0)
    grads = None
    if want_gradient:
        grads = np.zeros((npts, nfun, 3))
        grads[:, 0, 2] = dq[0]
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
            dqc = root2 * dq[mu]
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


def _eval_s1(degree: int, pts: np.ndarray, want_gradient: bool):
    """Values and tangential gradients of [cos(mt), sin(mt)]/sqrt(pi) on S1."""
    m = degree
    # cos(mt), sin(mt) via complex powers of (cos t + i sin t); no arctangents.
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


def _evaluate(basis: HarmonicBasis, points: np.ndarray, want_gradient: bool):
    """Values (P, N) and, if asked, tangential gradients (P, N, n+1) on S1 or S2."""
    pts = _check_points(points, basis.sphere_dim)
    kernel = _eval_s1 if basis.sphere_dim == 1 else _eval_s2
    return kernel(basis.degree, pts, want_gradient)


def eval_basis_many(basis: HarmonicBasis, points: np.ndarray) -> np.ndarray:
    """Basis values at many points, shape (P, N)."""
    return _evaluate(basis, points, want_gradient=False)[0]


def eval_basis(basis: HarmonicBasis, point) -> np.ndarray:
    """Basis values (f_1(x), ..., f_N(x)) at one point, shape (N,)."""
    p = as_sphere_point(point, basis.sphere_dim)
    return eval_basis_many(basis, p[None, :])[0]


def eval_gradient_many(basis: HarmonicBasis, points: np.ndarray) -> np.ndarray:
    """Tangential gradients at many points, shape (P, N, n+1)."""
    return _evaluate(basis, points, want_gradient=True)[1]


def eval_gradient(basis: HarmonicBasis, point) -> np.ndarray:
    """Tangential gradients grad f_i(x) in ambient coordinates, shape (N, n+1).

    Each row lies in the tangent plane at x (orthogonal to x).
    """
    p = as_sphere_point(point, basis.sphere_dim)
    return eval_gradient_many(basis, p[None, :])[0]


def eval_basis_and_gradient_many(
    basis: HarmonicBasis, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Values (P, N) and tangential gradients (P, N, n+1) in one pass."""
    return _evaluate(basis, points, want_gradient=True)


def tangent_frames(points: np.ndarray) -> np.ndarray:
    """Orthonormal tangent frames at unit vectors on S1 or S2, shape (P, n, n+1).

    On S1 the frame is the unit tangent (-y, x).  On S2 the first vector is
    x crossed with the coordinate axis least aligned with x, normalized; the
    second is x crossed with the first.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[1] == 2:
        return np.stack([-pts[:, 1], pts[:, 0]], axis=1)[:, None, :]
    helper = np.zeros_like(pts)
    helper[np.arange(pts.shape[0]), np.argmin(np.abs(pts), axis=1)] = 1.0
    e1 = np.cross(pts, helper)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    return np.stack([e1, np.cross(pts, e1)], axis=1)


def check_coefficients(basis: HarmonicBasis, coeffs) -> np.ndarray:
    """Validate a coefficient vector for u = sum_i c_i f_i."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (basis.dimension,):
        raise SphereInputError(
            f"coefficient vector must have length {basis.dimension}, got shape {c.shape}"
        )
    if not np.isfinite(c).all():
        raise SphereInputError("coefficients must be finite")
    return c


def eval_function(basis: HarmonicBasis, coeffs, points: np.ndarray) -> np.ndarray:
    """Evaluate u = sum_i c_i f_i at points of shape (P, n+1)."""
    c = check_coefficients(basis, coeffs)
    return eval_basis_many(basis, points) @ c


def laplacian_residual(basis: HarmonicBasis, coeffs, point) -> float:
    """|Delta u(x) + lam * u(x)| from a symmetric second-order stencil.

    The stencil walks geodesics from x along an orthonormal tangent frame, so
    it is independent of the analytic gradient code it cross-checks.
    """
    c = check_coefficients(basis, coeffs)
    p = as_sphere_point(point, basis.sphere_dim)
    u0 = float(eval_function(basis, c, p[None, :])[0])
    cos_h, sin_h = math.cos(LAPLACIAN_STEP), math.sin(LAPLACIAN_STEP)
    lap = 0.0
    for e in tangent_frames(p[None, :])[0]:
        plus = cos_h * p + sin_h * e
        minus = cos_h * p - sin_h * e
        u_pm = eval_function(basis, c, np.stack([plus, minus]))
        lap += (u_pm[0] - 2.0 * u0 + u_pm[1]) / LAPLACIAN_STEP**2
    return abs(lap + basis.eigenvalue * u0)


def zonal(basis: HarmonicBasis, axis) -> np.ndarray:
    """Coefficients of the axis-symmetric unit-norm function peaked at ``axis``.

    Only defined on S2.  The result v satisfies
    v(x) = sqrt((2m+1)/(4*pi)) * P_m(<x, axis>) with P_m the Legendre
    polynomial, has unit L2 norm, and is maximal at the axis.
    """
    if basis.sphere_dim != 2:
        raise SphereInputError("axis-symmetric construction is only defined on S2")
    a = as_sphere_point(axis, 2)
    # Pointwise-kernel construction: coefficients are the basis values at the
    # axis, scaled to unit norm (their squared sum is N / vol(M) everywhere).
    return eval_basis(basis, a) / basis.embedding_radius


def legendre_values(degree: int, t: np.ndarray) -> np.ndarray:
    """Plain Legendre polynomial P_m by the classic three-term recurrence."""
    t = np.asarray(t, dtype=float)
    p_prev = np.ones_like(t)
    if degree == 0:
        return p_prev
    p_curr = t.copy()
    for ell in range(2, degree + 1):
        p_prev, p_curr = p_curr, ((2 * ell - 1) * t * p_curr - (ell - 1) * p_prev) / ell
    return p_curr


def legendre_roots(degree: int) -> np.ndarray:
    """All ``degree`` roots of P_m in (-1, 1), ascending, by bisection.

    The roots interlace with those of P_{m-1}, so scanning a fine grid for
    sign changes is reliable; bisection then isolates each root to ~1e-15,
    all brackets stepping together.
    """
    if degree < 1:
        raise SphereInputError("degree must be >= 1")
    grid = np.linspace(-1.0, 1.0, 64 * degree + 1)
    vals = legendre_values(degree, grid)
    fa, fb = vals[:-1], vals[1:]
    exact = fa == 0.0
    bracket = ~exact & (fa * fb < 0.0)
    a, b, fa = grid[:-1][bracket], grid[1:][bracket], fa[bracket]
    for _ in range(80):
        mid = 0.5 * (a + b)
        fm = legendre_values(degree, mid)
        left = fa * fm <= 0.0
        b = np.where(left, mid, b)
        a, fa = np.where(left, a, mid), np.where(left, fa, fm)
    roots = np.sort(np.concatenate([grid[:-1][exact], 0.5 * (a + b), grid[-1:][vals[-1:] == 0.0]]))
    if len(roots) != degree:
        raise RuntimeError(f"expected {degree} roots of P_{degree}, found {len(roots)}")
    return roots


def rotation_coefficient_matrix(basis: HarmonicBasis, rotation: np.ndarray) -> np.ndarray:
    """Matrix A with (A c) the coefficients of x -> u(R^T x).

    Obtained numerically, by evaluating the rotated basis functions and
    projecting them back onto the basis with the exact-degree quadrature;
    rotated eigenfunctions stay inside the eigenspace, so the projection is
    accurate to machine level.  Used for equivariance checks.
    """
    rot = np.asarray(rotation, dtype=float)
    d = basis.ambient_dim
    if rot.shape != (d, d):
        raise SphereInputError(f"rotation must be {d}x{d}, got {rot.shape}")
    if np.max(np.abs(rot @ rot.T - np.eye(d))) > 1e-10:
        raise SphereInputError("rotation matrix is not orthogonal")
    pts, wts = orthonormality_quadrature(basis)
    values = eval_basis_many(basis, pts)
    rotated_values = eval_basis_many(basis, pts @ rot)  # columns f_j(R^T x_p)
    # A_kj = <f_j(R^T .), f_k> turns coefficients by u(R^T x) = sum (A c)_k f_k.
    return (values * wts[:, None]).T @ rotated_values


def rotate_coefficients(basis: HarmonicBasis, coeffs, rotation: np.ndarray) -> np.ndarray:
    """Coefficients of the rotated function x -> u(R^T x)."""
    c = check_coefficients(basis, coeffs)
    return rotation_coefficient_matrix(basis, rotation) @ c


def orthonormality_quadrature(basis: HarmonicBasis) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature (points, weights) exact for products of two basis functions.

    S2 uses Gauss-Legendre in z crossed with a uniform grid in the angle;
    the product rule integrates every degree <= 2m integrand exactly.  S1
    uses the uniform trapezoid rule, exact for frequencies below the grid
    size.
    """
    m = basis.degree
    if basis.sphere_dim == 1:
        n_ang = 4 * m + 4
        t = 2.0 * math.pi * np.arange(n_ang) / n_ang
        pts = np.stack([np.cos(t), np.sin(t)], axis=1)
        wts = np.full(n_ang, 2.0 * math.pi / n_ang)
        return pts, wts
    n_z = m + 1
    z_nodes, z_weights = np.polynomial.legendre.leggauss(n_z)
    n_phi = 4 * m + 4
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    zz, pp = np.meshgrid(z_nodes, phi, indexing="ij")
    s = np.sqrt(np.clip(1.0 - zz**2, 0.0, None))
    pts = np.stack([s * np.cos(pp), s * np.sin(pp), zz], axis=-1).reshape(-1, 3)
    wts = np.outer(z_weights, np.full(n_phi, 2.0 * math.pi / n_phi)).reshape(-1)
    return pts, wts


def orthonormality_residual(basis: HarmonicBasis) -> float:
    """Max |Gram_ij - delta_ij| of the basis under exact-degree quadrature."""
    pts, wts = orthonormality_quadrature(basis)
    values = eval_basis_many(basis, pts)
    gram = (values * wts[:, None]).T @ values
    return float(np.max(np.abs(gram - np.eye(basis.dimension))))


def unsold_residual(basis: HarmonicBasis, points: np.ndarray) -> float:
    """Max relative deviation of sum_i f_i(x)^2 from N / vol(M)."""
    values = eval_basis_many(basis, points)
    target = basis.unsold_constant
    return float(np.max(np.abs(np.einsum("pk,pk->p", values, values) - target)) / target)


def gradient_sum_residual(basis: HarmonicBasis, points: np.ndarray) -> float:
    """Max relative deviation of sum_i |grad f_i(x)|^2 from lam*N / vol(M)."""
    grads = eval_gradient_many(basis, points)
    target = basis.gradient_sum_constant
    total = np.einsum("pki,pki->p", grads, grads)
    return float(np.max(np.abs(total - target)) / target)
