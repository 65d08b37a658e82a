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

The kernel works on blocks of about EVAL_BLOCK basis values, one row per
basis function, and steps every order mu of the Legendre recurrence at once,
so a block costs O(m) array operations and its temporaries stay bounded.
Values-only calls skip the derivative recurrence.  Given coefficient rows,
``eval_basis_and_gradient_many`` returns the gradients of the row functions
directly (the Newton step of the S2 zero finder uses this), and never forms
the (P, N, n+1) gradient tensor.  Every value and gradient is bit-identical
to the straightforward evaluation: per-order recurrences, the (P, N, n+1)
tensor projected with ``einsum("pki,pi->pk")`` and contracted with
``einsum("pkj,rk->prj")``.  The summation orders that make this so are
pinned by a reference test.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

UNIT_NORM_TOL = 1e-12
MAX_DEGREE = 50
LAPLACIAN_STEP = 1e-4         # geodesic step of the laplacian_residual stencil
EVAL_BLOCK = 32768            # basis values per kernel block: P * N, bounds the temporaries


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


@functools.lru_cache(maxsize=None)
def _legendre_steps(degree: int):
    """Scalars of the normalized recurrence: the diagonal start of each order
    mu, its first step in the degree, and per degree ell >= 2 the (mu, 1)
    columns of the three-term coefficients for the orders mu <= ell - 2."""
    m = degree
    diag = [math.sqrt(1.0 / (4.0 * math.pi))]
    for mu in range(1, m + 1):
        diag.append(diag[-1] * math.sqrt((2.0 * mu + 1.0) / (2.0 * mu)))
    first = [math.sqrt(2.0 * mu + 3.0) for mu in range(m)]
    steps = []
    for ell in range(2, m + 1):
        a = [math.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - mu * mu)) for mu in range(ell - 1)]
        b = [
            math.sqrt(((ell - 1.0) ** 2 - mu * mu) / (4.0 * (ell - 1.0) ** 2 - 1.0))
            for mu in range(ell - 1)
        ]
        steps.append((np.array(a)[:, None], np.array(b)[:, None]))
    return diag, first, steps


def _legendre_q_block(degree: int, z: np.ndarray, want_derivative: bool):
    """Normalized Legendre polynomial parts Q and, if asked, dQ/dz, rows mu = 0..m.

    Q[mu] is the degree-(m - mu) polynomial in z with
    Pbar_m^mu(cos t) = sin(t)^mu * Q[mu](cos t), where Pbar is normalized so
    the resulting basis is orthonormal for the unnormalized surface measure.
    Three-term recurrences in the degree keep this stable far beyond m = 50.
    All orders step through the degree together (order mu joins at degree
    mu + 1), so the cost is O(m) array operations on (mu, P) blocks.
    """
    m = degree
    diag, first, steps = _legendre_steps(m)
    npts = z.shape[0]
    prev, curr, nxt = np.empty((3, m + 1, npts))
    dprev, dcurr, dnxt = np.empty((3, m + 1, npts)) if want_derivative else (None,) * 3
    for ell in range(1, m + 1):
        k = ell - 1                       # orders below k step, order k starts
        if k:
            a, b = steps[ell - 2]
            np.multiply(z, curr[:k], out=nxt[:k])
            nxt[:k] -= b * prev[:k]
            nxt[:k] *= a
            if want_derivative:
                np.multiply(z, dcurr[:k], out=dnxt[:k])
                dnxt[:k] += curr[:k]
                dnxt[:k] -= b * dprev[:k]
                dnxt[:k] *= a
        prev, curr, nxt = curr, nxt, prev
        prev[k] = diag[k]
        np.multiply(first[k] * z, diag[k], out=curr[k])
        if want_derivative:
            dprev, dcurr, dnxt = dcurr, dnxt, dprev
            dprev[k] = 0.0
            dcurr[k] = first[k] * diag[k]
    curr[m] = diag[m]
    if want_derivative:
        dcurr[m] = 0.0
    return curr, dcurr


def _eval_s2(degree: int, pts: np.ndarray, want_gradient: bool):
    """Values (N, P) and optionally tangential gradients (3, N, P) on S2.

    Function-major: row k is basis function k, and gradient component j of
    function k is ``grads[j, k]``.  The ambient polynomial gradients are
    projected to the tangent plane inside the kernel, with the radial part
    summed from zero as (g0*x + g2*z) + g1*y, the order of
    ``einsum("pki,pi->pk")`` on the (P, N, 3) tensor.
    """
    m = degree
    x, y, z = coords = np.ascontiguousarray(pts.T)
    q, dq = _legendre_q_block(m, z, want_gradient)
    # cr + i*ci = (x + i*y)^mu, row mu.
    cr, ci = np.empty((2, m + 1, pts.shape[0]))
    cr[0], ci[0] = 1.0, 0.0
    for mu in range(1, m + 1):
        np.multiply(cr[mu - 1], x, out=cr[mu])
        cr[mu] -= ci[mu - 1] * y
        np.multiply(ci[mu - 1], x, out=ci[mu])
        ci[mu] += cr[mu - 1] * y
    vals = np.empty((2 * m + 1, pts.shape[0]))
    vals[0] = q[0]
    qc = math.sqrt(2.0) * q[1:]
    np.multiply(qc, cr[1:], out=vals[1::2])
    np.multiply(qc, ci[1:], out=vals[2::2])
    if not want_gradient:
        return vals, None
    grads = np.empty((3,) + vals.shape)
    grads[:2, 0] = 0.0
    grads[2, 0] = dq[0]
    qc *= np.arange(1.0, m + 1.0)[:, None]
    np.multiply(qc, cr[:-1], out=grads[0, 1::2])
    np.multiply(qc, ci[:-1], out=grads[0, 2::2])
    np.negative(grads[0, 2::2], out=grads[1, 1::2])
    grads[1, 2::2] = grads[0, 1::2]
    dqc = math.sqrt(2.0) * dq[1:]
    np.multiply(dqc, cr[1:], out=grads[2, 1::2])
    np.multiply(dqc, ci[1:], out=grads[2, 2::2])
    radial = grads[0] * x
    radial += 0.0                         # a sum from zero: -0.0 becomes 0.0
    radial += grads[2] * z
    radial += grads[1] * y
    for g, coord in zip(grads, coords):
        g -= radial * coord
    return vals, grads


def _eval_s1(degree: int, pts: np.ndarray, want_gradient: bool):
    """Values (2, P) and tangential gradients (2, 2, P) of [cos(mt), sin(mt)]/sqrt(pi) on S1.

    Function-major like ``_eval_s2``: gradient component j of function k is
    ``grads[j, k]``.
    """
    m = degree
    # cos(mt), sin(mt) via complex powers of (cos t + i sin t); no arctangents.
    w = (pts[:, 0] + 1j * pts[:, 1]) ** m
    inv_root_pi = 1.0 / math.sqrt(math.pi)
    vals = np.empty((2, pts.shape[0]))
    vals[0] = w.real * inv_root_pi
    vals[1] = w.imag * inv_root_pi
    if not want_gradient:
        return vals, None
    tangent = np.empty((2, 1, pts.shape[0]))
    tangent[0, 0] = -pts[:, 1]
    tangent[1, 0] = pts[:, 0]
    scale = np.empty((2, pts.shape[0]))
    scale[0] = -m * inv_root_pi * w.imag
    scale[1] = m * inv_root_pi * w.real
    return vals, scale * tangent


def _contract_rows(grads: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Gradients (n+1, r, P) of the row functions from function-major (n+1, N, P).

    Adds g_k * rows[:, k] in ascending k starting from zero, the order of
    ``einsum("pkj,rk->prj")`` on the (P, N, n+1) tensor.
    """
    total = np.zeros((grads.shape[0], rows.shape[0], grads.shape[2]))
    for k in range(rows.shape[1]):
        total += grads[:, k, None, :] * rows[None, :, k, None]
    return total


def _evaluate(basis: HarmonicBasis, points: np.ndarray, want_gradient: bool, rows=None):
    """Values and, if asked, tangential gradients on S1 or S2, EVAL_BLOCK // N points at a time.

    Without ``rows``: values (P, N) and gradients (P, N, n+1).  With rows of
    shape (r, N): the row functions' values (P, r) and gradients (P, r, n+1).
    Every entry depends on its own point only, so chunking leaves the bits
    unchanged.
    """
    pts = _check_points(points, basis.sphere_dim)
    kernel = _eval_s1 if basis.sphere_dim == 1 else _eval_s2
    npts = pts.shape[0]
    vals = np.empty((npts, basis.dimension))
    grads = None
    if want_gradient:
        width = basis.dimension if rows is None else rows.shape[0]
        grads = np.empty((npts, width, basis.ambient_dim))
    step = max(1, EVAL_BLOCK // basis.dimension)
    for lo in range(0, npts, step):
        v, g = kernel(basis.degree, pts[lo : lo + step], want_gradient)
        vals[lo : lo + step] = v.T
        if want_gradient:
            if rows is not None:
                g = _contract_rows(g, rows)
            grads[lo : lo + step] = g.transpose(2, 1, 0)
    if rows is not None:
        vals = vals @ rows.T
    return vals, grads


def eval_basis_many(basis: HarmonicBasis, points: np.ndarray) -> np.ndarray:
    """Basis values at many points, shape (P, N)."""
    return _evaluate(basis, points, want_gradient=False)[0]


def eval_gradient_many(basis: HarmonicBasis, points: np.ndarray) -> np.ndarray:
    """Tangential gradients at many points, shape (P, N, n+1)."""
    return _evaluate(basis, points, want_gradient=True)[1]


def eval_basis_and_gradient_many(
    basis: HarmonicBasis, points: np.ndarray, rows=None
) -> tuple[np.ndarray, np.ndarray]:
    """Values (P, N) and tangential gradients (P, N, n+1) in one pass.

    With coefficient rows of shape (r, N), returns instead the values (P, r)
    and gradients (P, r, n+1) of the r row functions, without forming the
    (P, N, n+1) tensor.
    """
    if rows is not None:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != basis.dimension:
            raise SphereInputError(
                f"coefficient rows must have shape (r, {basis.dimension}), got {rows.shape}"
            )
    return _evaluate(basis, points, want_gradient=True, rows=rows)


def tangent_frames(points: np.ndarray) -> np.ndarray:
    """Orthonormal tangent frames at unit vectors on S1 or S2, shape (P, n, n+1).

    On S1 the frame is the unit tangent (-y, x).  On S2 the first vector is
    x crossed with the coordinate axis least aligned with x, normalized; the
    second is x crossed with the first.  The cross products are written out
    per component, in the operation order of ``np.cross``.
    """
    pts = np.asarray(points, dtype=float)
    frames = np.empty((pts.shape[0], pts.shape[1] - 1, pts.shape[1]))
    if pts.shape[1] == 2:
        frames[:, 0, 0] = -pts[:, 1]
        frames[:, 0, 1] = pts[:, 0]
        return frames
    x, y, z = pts.T
    axis = np.argmin(np.abs(pts), axis=1)
    h0, h1, h2 = (axis == 0) * 1.0, (axis == 1) * 1.0, (axis == 2) * 1.0
    a = y * h2 - z * h1
    b = z * h0 - x * h2
    c = x * h1 - y * h0
    norm = np.sqrt((a * a + b * b) + c * c)
    a /= norm
    b /= norm
    c /= norm
    frames[:, 0, 0], frames[:, 0, 1], frames[:, 0, 2] = a, b, c
    frames[:, 1, 0] = y * c - z * b
    frames[:, 1, 1] = z * a - x * c
    frames[:, 1, 2] = x * b - y * a
    return frames


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
    return eval_basis_many(basis, a[None, :])[0] / basis.embedding_radius


def legendre_roots(degree: int) -> np.ndarray:
    """All ``degree`` roots of the Legendre polynomial P_m in (-1, 1), ascending.

    They are the Gauss-Legendre nodes: ``leggauss`` takes the eigenvalues of
    the symmetric companion matrix of P_m, polishes them with one Newton
    step and symmetrizes them about 0.
    """
    if degree < 1:
        raise SphereInputError("degree must be >= 1")
    return np.polynomial.legendre.leggauss(degree)[0]


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
