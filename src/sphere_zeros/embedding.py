"""Numeric checks of the joint eigenbasis map f = (f_1, ..., f_N) into R^N.

The map sends the sphere onto a round sphere of radius R = sqrt(N/vol(M)),
is a metric dilation by C = lam*N / (n*vol(M)) (so its differential has
Gram matrix C*I in any orthonormal tangent frame), and covers its image
with some finite degree d.  This module measures all of these numerically:
R and C from pointwise identities, d by collision probing, and the image
volume by integrating sqrt(det Gram) over a geodesic mesh and dividing by
the multiplicity d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harmonics import (
    HarmonicBasis,
    SphereInputError,
    as_sphere_point,
    eval_basis_many,
    eval_gradient_many,
    random_sphere_points,
    tangent_frames,
)
from .icosphere import icosphere, spherical_face_areas

COLLISION_FACTOR = 1e-8       # image points closer than factor*R count as equal
MIN_SEPARATION = 1e-3         # geodesic distance below which pairs are ignored


class UnexpectedFiberError(RuntimeError):
    """Distinct non-identified source points mapped to the same image point."""


@dataclass(frozen=True)
class EmbeddingReport:
    """Measured radius, dilation, covering degree, and image volume."""

    sphere_dim: int
    degree: int
    radius: float                     # sqrt of the measured pointwise sum of squares
    dilation: float                   # lam * N / (n * vol M)
    covering_degree: int
    numeric_integral: float           # integral of sqrt(det Gram) over the source
    predicted_image_volume: float     # (1/d) * dilation^(n/2) * vol M
    max_gram_residual: float          # worst |Gram - C*I| entry over probe points
    antipodal_identified: bool        # whether f(-x) = f(x) held at the probes

    @property
    def numeric_image_volume(self) -> float:
        """Source integral divided by the covering multiplicity."""
        return self.numeric_integral / self.covering_degree


def radius_check(basis: HarmonicBasis, num_points: int, rng: np.random.Generator) -> float:
    """Max |sum_i f_i(x)^2 - N/vol(M)| over random points."""
    if num_points < 1:
        raise SphereInputError("num_points must be >= 1")
    pts = random_sphere_points(basis.sphere_dim, num_points, rng)
    values = eval_basis_many(basis, pts)
    return float(np.max(np.abs(np.einsum("pk,pk->p", values, values) - basis.unsold_constant)))


def dilation_check(basis: HarmonicBasis, point) -> float:
    """Max |Gram - C*I| entry of the differential at one point.

    The differential rows are the tangential gradients expressed in an
    orthonormal frame; the trace of the Gram matrix equals the pointwise
    gradient sum, tying this check to the radius identity.
    """
    p = as_sphere_point(point, basis.sphere_dim)
    frame = tangent_frames(p[None, :])[0]
    grads = eval_gradient_many(basis, p[None, :])[0]  # (N, n+1)
    differential = grads @ frame.T                    # (N, n)
    gram = differential.T @ differential
    return float(np.max(np.abs(gram - basis.dilation_constant * np.eye(basis.sphere_dim))))


def covering_degree(basis: HarmonicBasis, probes: int, rng: np.random.Generator) -> int:
    """Covering multiplicity of the joint map onto its image, by probing.

    On S2 the fiber over any image point is {x} or {x, -x}; the probe tests
    f(-x) = f(x) and scans random far-apart pairs for other collisions,
    which would flag a bug.  On S1 the map wraps the circle m times, so the
    multiplicity is recovered by counting the collision angles of
    t -> |f(t0 + t) - f(t0)| over a full revolution at each probe.
    """
    if probes < 1:
        raise SphereInputError("probes must be >= 1")
    radius = basis.embedding_radius
    tol = COLLISION_FACTOR * radius
    if basis.sphere_dim == 2:
        pts = random_sphere_points(2, probes, rng)
        values = eval_basis_many(basis, pts)
        mirrored = eval_basis_many(basis, -pts)
        antipodal = bool(np.max(np.linalg.norm(values - mirrored, axis=1)) <= tol)
        degree = 2 if antipodal else 1
        # Collision scan over random far-apart, non-identified pairs.
        x = random_sphere_points(2, probes, rng)
        y = random_sphere_points(2, probes, rng)
        sep = np.arccos(np.clip(np.einsum("pi,pi->p", x, y), -1.0, 1.0))
        ok = sep > MIN_SEPARATION
        if antipodal:
            anti_sep = np.arccos(np.clip(-np.einsum("pi,pi->p", x, y), -1.0, 1.0))
            ok &= anti_sep > MIN_SEPARATION
        if np.any(ok):
            dist = np.linalg.norm(
                eval_basis_many(basis, x[ok]) - eval_basis_many(basis, y[ok]), axis=1
            )
            if np.any(dist < tol):
                raise UnexpectedFiberError(
                    "collision between non-identified points; covering degree "
                    "on S2 must be 1 or 2"
                )
        return degree

    # S1: count collision angles along one revolution from each probe.  One
    # probe already scans the whole circle; a handful guards consistency.
    t0 = rng.uniform(0.0, 2.0 * math.pi, size=min(probes, 6))
    n_scan = 512 * basis.degree
    t = 2.0 * math.pi * (np.arange(n_scan) / n_scan)
    angles = (t0[:, None] + t[None, :]).reshape(-1)
    scan = eval_basis_many(basis, np.stack([np.cos(angles), np.sin(angles)], axis=1))
    scan = scan.reshape(t0.size, n_scan, 2)
    f0 = scan[:, 0]
    gap = np.linalg.norm(scan[:, 1:] - f0[:, None, :], axis=2)
    # Local minima of the gap on every probe, refined together by ternary
    # search; each interval stops once it is narrower than 1e-14.
    owner, j = np.nonzero((gap[:, 1:-1] < gap[:, :-2]) & (gap[:, 1:-1] < gap[:, 2:]))
    lo, hi = t[j + 1], t[j + 3]
    base, ref = t0[owner], f0[owner]

    def gap_at(s: np.ndarray) -> np.ndarray:
        a = base + s
        pts = np.stack([np.cos(a), np.sin(a)], axis=-1).reshape(-1, 2)
        return np.linalg.norm(eval_basis_many(basis, pts).reshape(a.shape + (2,)) - ref, axis=-1)

    for _ in range(200):
        live = hi - lo >= 1e-14
        if not live.any():
            break
        third = (hi - lo) / 3.0
        a, b = lo + third, hi - third
        ga, gb = gap_at(np.stack([a, b]))
        left = ga < gb
        hi = np.where(live & left, b, hi)
        lo = np.where(live & ~left, a, lo)
    hits = np.bincount(owner[gap_at(0.5 * (lo + hi)) < tol], minlength=t0.size)
    counts = set((hits + 1).tolist())     # + the trivial collision at t = 0
    if len(counts) != 1:
        raise UnexpectedFiberError(f"inconsistent collision counts across probes: {counts}")
    return counts.pop()


def image_volume(
    basis: HarmonicBasis,
    quadrature_depth: int = 4,
    probes: int = 64,
    seed: int = 988,
) -> EmbeddingReport:
    """Full embedding report with the image volume measured by quadrature.

    The integrand sqrt(det Gram) is evaluated from the numeric differential
    at every quadrature node (face centroids of a geodesic mesh on S2, a
    uniform grid on S1) and integrated against exact cell measures.  The
    default depth reproduces the degree-1 reference value 3 to well below
    1e-4; the integrand is constant for an exact eigenbasis, so accuracy is
    limited only by the pointwise identity residuals.
    """
    rng = np.random.default_rng([seed, basis.sphere_dim, basis.degree])
    degree_count = covering_degree(basis, probes, rng)
    n = basis.sphere_dim
    target = basis.dilation_constant

    if n == 2:
        mesh = icosphere(quadrature_depth)
        nodes = mesh.centroids
        weights = spherical_face_areas(mesh)
    else:
        n_nodes = max(512, 64 * basis.degree)
        t = 2.0 * math.pi * (np.arange(n_nodes) + 0.5) / n_nodes
        nodes = np.stack([np.cos(t), np.sin(t)], axis=1)
        weights = np.full(n_nodes, 2.0 * math.pi / n_nodes)

    grads = eval_gradient_many(basis, nodes)          # (P, N, n+1)
    frames = tangent_frames(nodes)                    # (P, n, n+1)
    d = [np.einsum("pkj,pj->pk", grads, frames[:, i]) for i in range(n)]
    gram = np.array([[np.einsum("pk,pk->p", a, b) for b in d] for a in d])   # (n, n, P)
    det = gram[0, 0] if n == 1 else gram[0, 0] * gram[1, 1] - gram[0, 1] ** 2
    gram_residual = float(np.max(np.abs(gram - target * np.eye(n)[:, :, None])))

    numeric_integral = float(np.sum(weights * np.sqrt(np.clip(det, 0.0, None))))
    values = eval_basis_many(basis, nodes)
    radius = float(math.sqrt(np.mean(np.einsum("pk,pk->p", values, values))))
    mirrored = eval_basis_many(basis, -nodes[: min(64, nodes.shape[0])])
    antipodal = bool(
        np.max(np.linalg.norm(values[: mirrored.shape[0]] - mirrored, axis=1))
        <= COLLISION_FACTOR * basis.embedding_radius
    )
    predicted = target ** (n / 2.0) * basis.manifold_volume / degree_count
    return EmbeddingReport(
        sphere_dim=n,
        degree=basis.degree,
        radius=radius,
        dilation=target,
        covering_degree=degree_count,
        numeric_integral=numeric_integral,
        predicted_image_volume=predicted,
        max_gram_residual=gram_residual,
        antipodal_identified=antipodal,
    )
