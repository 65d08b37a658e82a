"""Numeric checks of the joint eigenbasis map f = (f_1, ..., f_N) into R^N.

The map sends the sphere onto a round sphere of radius R = sqrt(N/vol(M)),
is a metric dilation by C = lam*N / (n*vol(M)), and covers its image with
some finite degree d.  This module measures all of these numerically:
R and C from pointwise identities, d by counting collisions f(x) = f(x0),
and the image volume by integrating sqrt(det Gram) over a geodesic mesh and
dividing by the multiplicity d.  The metric needs no tangent frame: with
A(x) = sum_k grad f_k grad f_k^T, any orthonormal frame F at x has
Gram = F A F^T and A - C(I - x x^T) = F^T (Gram - C*I) F.  The quadrature
makes one kernel call per block of nodes and reads |f|^2 and A's distinct
entries off the kernel's function-major buffer (``kernel_blocks``).  The
integrand is even, so the S2 quadrature visits only the half of the mesh
whose antipodes cover the rest.  On S1 the collisions are found in closed
form: each is a zero of the degree-m eigenfunction x -> <f(x), df(x0)>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harmonics import (
    HarmonicBasis,
    as_sphere_point,
    check_integer,
    eval_basis_many,
    eval_gradient_many,
    kernel_blocks,
    random_sphere_points,
)
from .icosphere import icosphere
from .zerofinder import find_common_zeros_s1, make_sample

COLLISION_FACTOR = 1e-8       # image points closer than factor*R count as equal
MIN_SEPARATION = 1e-3         # geodesic distance below which pairs are ignored
COVERING_PROBES = 64          # random points, and random point pairs, per S2 covering check
MAX_QUADRATURE_DEPTH = 9      # the depth-9 quadrature mesh has 5.2M faces, each level 4x more


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
    max_gram_residual: float          # worst |A - C(I - x x^T)| entry over the quadrature nodes
    antipodal_identified: bool        # whether f(-x) = f(x), read off the covering degree

    @property
    def numeric_image_volume(self) -> float:
        """Source integral divided by the covering multiplicity."""
        return self.numeric_integral / self.covering_degree


_ENTRIES = {1: ((0, 0), (1, 1), (0, 1)), 2: ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))}


def _node_metric(basis: HarmonicBasis, nodes: np.ndarray) -> np.ndarray:
    """det Gram, the max |A - C(I - x x^T)| entry and |f|^2 at each node, shape (3, P).

    A has Gram's eigenvalues plus a 0 along x, so det Gram is tr A on S1 and
    the sum of A's principal 2 x 2 minors on S2.  The residual is 0 exactly
    when Gram = C*I, and A - C(I - x x^T) has the Frobenius norm of Gram - C*I.
    One kernel call per block: A's entries and |f|^2 are read off its buffer,
    with the bits, in blocks of two or more nodes, of sums over the strided
    rows of the (P, N, n+1) gradient tensor and of a separate values pass.
    """
    out = np.zeros((3, len(nodes)))
    det, residual, sq_norm = out
    for block, parts in kernel_blocks(basis, nodes, want_gradient=True):
        values = np.ascontiguousarray(parts[0].T)      # (P, N), the layout |f|^2 is summed on
        sq_norm[block] = np.einsum("pk,pk->p", values, values)
        x, a, dev = nodes[block], {}, residual[block]
        for i, j in _ENTRIES[basis.sphere_dim]:       # the distinct entries of the symmetric A
            a[i, j] = np.einsum("kp,kp->p", parts[1 + i], parts[1 + j])
            target = basis.dilation_constant * ((i == j) - x[:, i] * x[:, j])
            np.maximum(dev, np.abs(a[i, j] - target), out=dev)
        if basis.sphere_dim == 1:
            det[block] = a[0, 0] + a[1, 1]
        else:
            det[block] = sum(a[i, i] * a[j, j] - a[i, j] ** 2 for i, j in ((0, 1), (0, 2), (1, 2)))
    return out


def dilation_check(basis: HarmonicBasis, point) -> float:
    """Max |A - C(I - x x^T)| entry at one point, A = sum_k grad f_k grad f_k^T.

    It is 0 exactly when the Gram matrix of the differential is C*I in any
    orthonormal tangent frame; tr A is the pointwise gradient sum, which
    ties this check to the radius identity.
    """
    p = as_sphere_point(point, basis.sphere_dim)
    # Two copies of x: einsum sums a one-column block's A in another order.
    return float(_node_metric(basis, np.stack([p, p]))[1, 0])


def covering_degree(basis: HarmonicBasis, rng: np.random.Generator) -> int:
    """Covering multiplicity of the joint map onto its image, by probing.

    On S2 the fiber over any image point is {x} or {x, -x}; the probe tests
    f(-x) = f(x) and scans random far-apart pairs for other collisions,
    which would flag a bug.  On S1, |f|^2 is constant, so every x with
    f(x) = f(x0) is a zero of the degree-m eigenfunction x -> <f(x), df(x0)>;
    its 2m zeros come in closed form, x0 among them, and the multiplicity is
    the number of them that f sends to f(x0).  Six base points x0 must agree.
    """
    radius = basis.embedding_radius
    tol = COLLISION_FACTOR * radius
    if basis.sphere_dim == 2:
        pts = random_sphere_points(2, COVERING_PROBES, rng)
        values, mirrored = np.split(eval_basis_many(basis, np.concatenate([pts, -pts])), 2)
        antipodal = bool(np.max(np.linalg.norm(values - mirrored, axis=1)) <= tol)
        degree = 2 if antipodal else 1
        # Collision scan over random far-apart, non-identified pairs.
        x = random_sphere_points(2, COVERING_PROBES, rng)
        y = random_sphere_points(2, COVERING_PROBES, rng)
        sep = np.arccos(np.clip(np.einsum("pi,pi->p", x, y), -1.0, 1.0))
        ok = sep > MIN_SEPARATION
        if antipodal:
            anti_sep = np.arccos(np.clip(-np.einsum("pi,pi->p", x, y), -1.0, 1.0))
            ok &= anti_sep > MIN_SEPARATION
        if np.any(ok):
            fx, fy = np.split(eval_basis_many(basis, np.concatenate([x[ok], y[ok]])), 2)
            dist = np.linalg.norm(fx - fy, axis=1)
            if np.any(dist < tol):
                raise UnexpectedFiberError(
                    "collision between non-identified points; covering degree "
                    "on S2 must be 1 or 2"
                )
        return degree

    t0 = rng.uniform(0.0, 2.0 * math.pi, size=6)
    base = np.stack([np.cos(t0), np.sin(t0)], axis=1)
    tangent = np.stack([-base[:, 1], base[:, 0]], axis=1)
    df0 = np.einsum("pkj,pj->pk", eval_gradient_many(basis, base), tangent)
    counts = set()
    for ref, row in zip(eval_basis_many(basis, base), df0):
        zeros = find_common_zeros_s1(basis, make_sample([row], [basis.degree])).zeros
        gap = np.linalg.norm(eval_basis_many(basis, zeros) - ref, axis=1)
        counts.add(int(np.count_nonzero(gap < tol)))
    if len(counts) != 1:
        raise UnexpectedFiberError(f"inconsistent collision counts across probes: {counts}")
    return counts.pop()


def image_volume(
    basis: HarmonicBasis, quadrature_depth: int = 4, seed: int = 988
) -> EmbeddingReport:
    """Full embedding report with the image volume measured by quadrature.

    The integrand sqrt(det Gram) is evaluated from the numeric differential
    at every quadrature node (face centroids of a geodesic mesh on S2, a
    uniform grid on S1) and integrated against exact cell measures.  The
    default depth reproduces the degree-1 reference value 3 to well below
    1e-4; the integrand is constant for an exact eigenbasis, so accuracy is
    limited only by the pointwise identity residuals.

    On S2 the nodes are the centroids of the faces [0, F/2) of the depth-d
    icosphere, the only faces ``icosphere`` builds, weighted by twice their
    exact areas.
    Since f(-x) = (-1)^m f(x), the gradients at -x are those at x up to
    signs, so A is even, and with it det Gram, the residual and |f|^2.
    The half's faces and their antipodes tile S2, so the doubled half sum is
    the full mesh sum, and the radius and the residual read off the half are
    those of the whole mesh, up to rounding.
    """
    quadrature_depth = check_integer("quadrature depth", quadrature_depth, 1, MAX_QUADRATURE_DEPTH)
    rng = np.random.default_rng([check_integer("seed", seed, 0), basis.sphere_dim, basis.degree])
    degree_count = covering_degree(basis, rng)
    n = basis.sphere_dim
    target = basis.dilation_constant

    if n == 2:
        # The integrand is even and the mesh's half with its antipodes tiles
        # S2, so that half with doubled areas gives the whole sum.
        mesh = icosphere(quadrature_depth)
        nodes, weights = mesh.centroids, 2.0 * mesh.areas
    else:
        n_nodes = max(512, 64 * basis.degree)
        t = 2.0 * math.pi * (np.arange(n_nodes) + 0.5) / n_nodes
        nodes = np.stack([np.cos(t), np.sin(t)], axis=1)
        weights = np.full(n_nodes, 2.0 * math.pi / n_nodes)

    # One kernel block of nodes at a time, so the kernel's buffer for all
    # nodes is never held at once.  Each per-node entry depends on its node
    # only, and the sums run over the full arrays, so the report has the
    # bits of a single pass.
    det, deviation, sq_norm = _node_metric(basis, nodes)
    gram_residual = float(np.max(deviation))

    numeric_integral = float(np.sum(weights * np.sqrt(np.clip(det, 0.0, None))))
    radius = float(math.sqrt(np.mean(sq_norm)))
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
        # f(-x) = f(x) exactly when the fiber holds -x: on S2 that is d = 2, and
        # on S1 the fiber of x is x rotated by 2*pi*Z/d, which holds pi iff d is even.
        antipodal_identified=degree_count % 2 == 0,
    )
