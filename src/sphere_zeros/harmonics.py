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
Gradients need no second recurrence: dQ/dz of order mu is a fixed multiple
of Q one order up, so a gradient call costs the values recurrence plus one
scaled multiply.  Values and gradients land in one (1 or n+2, N, P) buffer,
handed out block by block by ``kernel_blocks``.  The row contraction
(coefficient rows, as the S2 zero finder uses) and the embedding quadrature
(|f|^2 and A = sum_k grad f_k grad f_k^T) read it directly, so they never
form the (P, N, n+1) gradient tensor.  Every value and gradient is
bit-identical to the straightforward evaluation: per-order recurrences for
Q, dQ/dz read off Q, the (P, N, n+1) tensor projected with
``einsum("pki,pi->pk")`` and contracted with ``einsum("pkj,rk->prj")``,
and row values summed over k in ascending order from zero.  The summation
orders that make this so are pinned by a reference test; none of them
depends on the number of points in a call.

The orthonormality grid has only m + 1 distinct latitudes, so its values
run the Legendre recurrence once per latitude and hand each block's
columns to the same kernel; the recurrence is elementwise in z, so these
values keep the bits of ``eval_basis_many`` on the grid points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

UNIT_NORM_TOL = 1e-12
MAX_DEGREE = 50
EVAL_BLOCK = 32768            # basis values per kernel block: P * N, bounds the temporaries


class SphereInputError(ValueError):
    """Raised for points off the sphere or invalid basis parameters."""


def check_integer(name: str, value, low: int, high: float = math.inf) -> int:
    """``value`` as an int; SphereInputError unless an integer in [low, high], bools rejected."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_))
    if not (integer and low <= value <= high):
        bounds = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise SphereInputError(f"{name} must be an integer {bounds}, got {value}")
    return int(value)


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

    Rejects sphere_dim outside {1, 2} and degree outside [1, MAX_DEGREE] (the
    constant eigenfunction with eigenvalue 0 is excluded).
    """
    sphere_dim = check_integer("sphere_dim", sphere_dim, 1, 2)
    degree = check_integer("degree", degree, 1, MAX_DEGREE)
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
    if not abs(np.dot(p, p) - 1.0) <= 2.0 * UNIT_NORM_TOL:
        raise SphereInputError(f"point is not on the unit sphere: |x| = {np.linalg.norm(p)!r}")
    return p


def _check_points(points: np.ndarray, sphere_dim: int) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != sphere_dim + 1:
        raise SphereInputError(f"expected points of shape (P, {sphere_dim + 1}), got {pts.shape}")
    err = np.abs(np.einsum("pi,pi->p", pts, pts) - 1.0)
    if err.size and not err.max() <= 2.0 * UNIT_NORM_TOL:
        raise SphereInputError(f"points not on the unit sphere (max |x|^2 - 1 = {err.max():.3e})")
    return pts


def random_sphere_points(sphere_dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points on S^n via normalized Gaussians, shape (count, n+1)."""
    v = rng.standard_normal((count, sphere_dim + 1))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@functools.lru_cache(maxsize=None)
def _legendre_steps(degree: int):
    """Scalars of the normalized recurrence: the diagonal start of each order
    mu, its first step in the degree, per degree ell >= 2 the (mu, 1)
    columns of the three-term coefficients for the orders mu <= ell - 2, and
    the (m, 1) column of ratios sqrt((m - mu)(m + mu + 1)), mu < m, that turn
    Q[mu + 1] into dQ[mu]/dz."""
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
    ratio = np.sqrt([(m - mu) * (m + mu + 1.0) for mu in range(m)])[:, None]
    return diag, first, steps, ratio


def _legendre_q_block(degree: int, z: np.ndarray) -> np.ndarray:
    """Normalized Legendre polynomial parts Q, shape (m+1, P).

    Q[mu] is the degree-(m - mu) polynomial in z with
    Pbar_m^mu(cos t) = sin(t)^mu * Q[mu](cos t), where Pbar is normalized so
    the resulting basis is orthonormal for the unnormalized surface measure.
    Three-term recurrences in the degree keep this stable far beyond m = 50.
    All orders step through the degree together (order mu joins at degree
    mu + 1), so the cost is O(m) array operations on (mu, P) blocks.
    """
    m = degree
    diag, first, steps, _ = _legendre_steps(m)
    prev, curr, nxt = np.empty((3, m + 1, z.shape[0]))
    for ell in range(1, m + 1):
        k = ell - 1                       # orders below k step, order k starts
        if k:
            a, b = steps[ell - 2]
            np.multiply(z, curr[:k], out=nxt[:k])
            nxt[:k] -= b * prev[:k]
            nxt[:k] *= a
        prev, curr, nxt = curr, nxt, prev
        prev[k] = diag[k]
        np.multiply(first[k] * z, diag[k], out=curr[k])
    curr[m] = diag[m]
    return curr


def _eval_s2(degree: int, pts: np.ndarray, want_gradient: bool, q=None) -> np.ndarray:
    """Values and optionally tangential gradients on S2, stacked (1 or 4, N, P).

    Function-major: ``parts[0, k]`` is basis function k and
    ``parts[1 + j, k]`` its gradient component j, so the row contraction
    reads one buffer.  dQ/dz is read off the values: Q[mu] is
    N_m^mu * d^mu P_m / dz^mu, so dQ[mu]/dz = sqrt((m - mu)(m + mu + 1)) *
    Q[mu + 1] for mu < m and dQ[m]/dz = 0, rounded as r_mu * (sqrt(2) *
    Q[mu + 1]) on the cos/sin rows.  The ambient polynomial gradients are
    projected to the tangent plane inside the kernel, with the radial part
    summed from zero as (g0*x + g2*z) + g1*y, the order of
    ``einsum("pki,pi->pk")`` on the (P, N, 3) tensor.  ``q``, if given, is
    ``_legendre_q_block`` of the points' z coordinates, computed by the caller.
    """
    m = degree
    x, y, z = coords = np.ascontiguousarray(pts.T)
    if q is None:
        q = _legendre_q_block(m, z)
    # cr + i*ci = (x + i*y)^mu, row mu.
    cr, ci = np.empty((2, m + 1, pts.shape[0]))
    cr[0], ci[0] = 1.0, 0.0
    for mu in range(1, m + 1):
        np.multiply(cr[mu - 1], x, out=cr[mu])
        cr[mu] -= ci[mu - 1] * y
        np.multiply(ci[mu - 1], x, out=ci[mu])
        ci[mu] += cr[mu - 1] * y
    parts = np.empty((1 + 3 * want_gradient, 2 * m + 1, pts.shape[0]))
    vals = parts[0]
    vals[0] = q[0]
    qc = math.sqrt(2.0) * q[1:]
    np.multiply(qc, cr[1:], out=vals[1::2])
    np.multiply(qc, ci[1:], out=vals[2::2])
    if not want_gradient:
        return parts
    ratio = _legendre_steps(m)[3]
    grads = parts[1:]
    grads[:2, 0] = 0.0
    np.multiply(ratio[0], q[1], out=grads[2, 0])
    dqc = np.zeros_like(qc)               # the last row, order m, stays 0
    np.multiply(ratio[1:], qc[1:], out=dqc[:-1])
    np.multiply(dqc, cr[1:], out=grads[2, 1::2])
    np.multiply(dqc, ci[1:], out=grads[2, 2::2])
    qc *= np.arange(1.0, m + 1.0)[:, None]
    np.multiply(qc, cr[:-1], out=grads[0, 1::2])
    np.multiply(qc, ci[:-1], out=grads[0, 2::2])
    np.negative(grads[0, 2::2], out=grads[1, 1::2])
    grads[1, 2::2] = grads[0, 1::2]
    radial = grads[0] * x
    radial += 0.0                         # a sum from zero: -0.0 becomes 0.0
    radial += grads[2] * z
    radial += grads[1] * y
    for g, coord in zip(grads, coords):
        g -= radial * coord
    return parts


def _eval_s1(degree: int, pts: np.ndarray, want_gradient: bool) -> np.ndarray:
    """Values and gradients of [cos(mt), sin(mt)]/sqrt(pi) on S1, stacked (1 or 3, 2, P).

    Laid out like ``_eval_s2``: ``parts[1 + j, k]`` is gradient component j
    of function k.
    """
    m = degree
    # cos(mt), sin(mt) via complex powers of (cos t + i sin t); no arctangents.
    w = (pts[:, 0] + 1j * pts[:, 1]) ** m
    inv_root_pi = 1.0 / math.sqrt(math.pi)
    parts = np.empty((1 + 2 * want_gradient, 2, pts.shape[0]))
    parts[0, 0] = w.real * inv_root_pi
    parts[0, 1] = w.imag * inv_root_pi
    if not want_gradient:
        return parts
    tangent = np.empty((2, 1, pts.shape[0]))
    tangent[0, 0] = -pts[:, 1]
    tangent[1, 0] = pts[:, 0]
    scale = np.empty((2, pts.shape[0]))
    scale[0] = -m * inv_root_pi * w.imag
    scale[1] = m * inv_root_pi * w.real
    np.multiply(scale, tangent, out=parts[1:])
    return parts


def _contract_rows(parts: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row-function parts (c, r, P) from function-major basis parts (c, N, P).

    Adds parts[:, k] * rows[:, k] in ascending k starting from zero, each
    product written into one reused buffer; for gradients this is the order
    of ``einsum("pkj,rk->prj")`` on the (P, N, n+1) tensor.
    """
    total = np.zeros((parts.shape[0], rows.shape[0], parts.shape[2]))
    term = np.empty_like(total)
    for k in range(rows.shape[1]):
        np.multiply(parts[:, k, None, :], rows[None, :, k, None], out=term)
        total += term
    return total


def point_blocks(basis: HarmonicBasis, count: int) -> list[slice]:
    """Slices of at most EVAL_BLOCK // N points that cover ``count`` points in order."""
    step = max(1, EVAL_BLOCK // basis.dimension)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def kernel_blocks(basis: HarmonicBasis, points: np.ndarray, want_gradient: bool):
    """(block, parts) per block of ``point_blocks``, ``parts`` the kernel's buffer
    (1 or n+2, N, P) at the block's points; the points are checked once, up front."""
    pts = _check_points(points, basis.sphere_dim)
    kernel = _eval_s1 if basis.sphere_dim == 1 else _eval_s2
    return ((b, kernel(basis.degree, pts[b], want_gradient)) for b in point_blocks(basis, len(pts)))


def _evaluate(basis: HarmonicBasis, points: np.ndarray, want_gradient: bool, rows=None):
    """Values and, if asked, tangential gradients on S1 or S2, from ``kernel_blocks``.

    Without ``rows``: values (P, N) and gradients (P, N, n+1).  With rows of
    shape (r, N): the row functions' values (P, r) and gradients (P, r, n+1),
    both summed by ``_contract_rows`` in ascending k from zero.  Every entry
    depends on its own point only, so neither the chunking nor the other
    points of a call change its bits.
    """
    blocks = kernel_blocks(basis, points, want_gradient)
    if rows is not None:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != basis.dimension:
            raise SphereInputError(
                f"coefficient rows must have shape (r, {basis.dimension}), got {rows.shape}"
            )
    width = basis.dimension if rows is None else rows.shape[0]
    vals = np.empty((len(points), width))
    grads = np.empty((len(points), width, basis.ambient_dim)) if want_gradient else None
    for block, parts in blocks:
        if rows is not None:
            parts = _contract_rows(parts, rows)   # values and gradients in one loop
        vals[block] = parts[0].T
        if want_gradient:
            grads[block] = parts[1:].transpose(2, 1, 0)
    return vals, grads


def eval_basis_many(basis: HarmonicBasis, points: np.ndarray, rows=None) -> np.ndarray:
    """Basis values at many points, shape (P, N).

    With coefficient rows of shape (r, N), returns instead the values (P, r)
    of the r row functions.
    """
    return _evaluate(basis, points, want_gradient=False, rows=rows)[0]


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
    return _evaluate(basis, points, want_gradient=True, rows=rows)


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
    return np.polynomial.legendre.leggauss(check_integer("degree", degree, 1, MAX_DEGREE))[0]


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


def _quadrature_values(basis: HarmonicBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points and weights of ``orthonormality_quadrature`` and the basis values (P, N) there.

    The S2 grid is latitude-major, m + 1 latitudes of equally many points,
    so the Legendre recurrence runs once on the m + 1 latitudes and every
    point takes its latitude's column; the recurrence is elementwise in z,
    so the values have the bits of ``eval_basis_many`` on the same points.
    """
    pts, wts = orthonormality_quadrature(basis)
    if basis.sphere_dim == 1:
        return pts, wts, eval_basis_many(basis, pts)
    m = basis.degree
    n_phi = len(pts) // (m + 1)
    q = _legendre_q_block(m, pts[::n_phi, 2])
    latitude = np.arange(len(pts)) // n_phi
    values = np.empty((len(pts), basis.dimension))
    for block in point_blocks(basis, len(pts)):
        values[block] = _eval_s2(m, pts[block], False, q[:, latitude[block]])[0].T
    return pts, wts, values


def orthonormality_residual(basis: HarmonicBasis) -> float:
    """Max |Gram_ij - delta_ij| of the basis under exact-degree quadrature."""
    _, wts, values = _quadrature_values(basis)
    gram = (values * wts[:, None]).T @ values
    return float(np.max(np.abs(gram - np.eye(basis.dimension))))


def _max_over_blocks(basis: HarmonicBasis, points: np.ndarray, deviation) -> float:
    """Max of ``deviation(block)`` over blocks of EVAL_BLOCK // N points.

    The identity checks reduce every point on its own, so the blocks give the
    bits of one call over all points without holding its (P, N) values or
    (P, N, n+1) gradients.
    """
    if len(points) == 0:
        raise SphereInputError("the identity checks need at least one point")
    return max(float(np.max(deviation(points[b]))) for b in point_blocks(basis, len(points)))


def unsold_residual(basis: HarmonicBasis, points: np.ndarray) -> float:
    """Max relative deviation of sum_i f_i(x)^2 from N / vol(M)."""
    target = basis.unsold_constant

    def deviation(block):
        values = eval_basis_many(basis, block)
        return np.abs(np.einsum("pk,pk->p", values, values) - target)

    return _max_over_blocks(basis, points, deviation) / target


def gradient_sum_residual(basis: HarmonicBasis, points: np.ndarray) -> float:
    """Max relative deviation of sum_i |grad f_i(x)|^2 from lam*N / vol(M)."""
    target = basis.gradient_sum_constant

    def deviation(block):
        grads = eval_gradient_many(basis, block)
        return np.abs(np.einsum("pki,pki->p", grads, grads) - target)

    return _max_over_blocks(basis, points, deviation) / target
