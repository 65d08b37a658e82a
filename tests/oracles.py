"""Reference computations that only the tests use.

A tangent frame, a finite-difference Laplacian, the action of rotations
on coefficient vectors, the whole icosphere and the two-pass embedding
metric.  None of them serves a command, so they live here rather than in
the package.  Each works through the package's own basis evaluation and
input checks; the whole icosphere is subdivided over a shared-vertex table
of its own, independently of the package's face-corner mesh.
"""

import functools
import math

import numpy as np

from sphere_zeros import SphereInputError, eval_basis_many, eval_gradient_many
from sphere_zeros.harmonics import (
    _quadrature_values,
    as_sphere_point,
    check_coefficients,
    point_blocks,
)
from sphere_zeros.icosphere import _ICO_FACES, _ICO_VERTICES

LAPLACIAN_STEP = 1e-4         # geodesic step of the laplacian_residual stencil


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


def laplacian_residual(basis, coeffs, point) -> float:
    """|Delta u(x) + lam * u(x)| from a symmetric second-order stencil.

    The stencil walks geodesics from x along an orthonormal tangent frame, so
    it is independent of the analytic gradient code it cross-checks.
    """
    c = check_coefficients(basis, coeffs)
    p = as_sphere_point(point, basis.sphere_dim)
    u0 = float(eval_basis_many(basis, p[None, :])[0] @ c)
    cos_h, sin_h = math.cos(LAPLACIAN_STEP), math.sin(LAPLACIAN_STEP)
    lap = 0.0
    for e in tangent_frames(p[None, :])[0]:
        plus = cos_h * p + sin_h * e
        minus = cos_h * p - sin_h * e
        u_pm = eval_basis_many(basis, np.stack([plus, minus])) @ c
        lap += (u_pm[0] - 2.0 * u0 + u_pm[1]) / LAPLACIAN_STEP**2
    return abs(lap + basis.eigenvalue * u0)


def rotation_coefficient_matrix(basis, rotation: np.ndarray) -> np.ndarray:
    """Matrix A with (A c) the coefficients of x -> u(R^T x).

    Obtained numerically, by evaluating the rotated basis functions and
    projecting them back onto the basis with the exact-degree quadrature;
    rotated eigenfunctions stay inside the eigenspace, so the projection is
    accurate to machine level.
    """
    rot = np.asarray(rotation, dtype=float)
    d = basis.ambient_dim
    if rot.shape != (d, d):
        raise SphereInputError(f"rotation must be {d}x{d}, got {rot.shape}")
    if not np.max(np.abs(rot @ rot.T - np.eye(d))) <= 1e-10:
        raise SphereInputError("rotation matrix is not orthogonal")
    pts, wts, values = _quadrature_values(basis)
    rotated_values = eval_basis_many(basis, pts @ rot)  # columns f_j(R^T x_p)
    # A_kj = <f_j(R^T .), f_k> turns coefficients by u(R^T x) = sum (A c)_k f_k.
    return (values * wts[:, None]).T @ rotated_values


def rotate_coefficients(basis, coeffs, rotation: np.ndarray) -> np.ndarray:
    """Coefficients of the rotated function x -> u(R^T x)."""
    c = check_coefficients(basis, coeffs)
    return rotation_coefficient_matrix(basis, rotation) @ c


def _ref_subdivide(vertices, faces):
    """Midpoint quadrisection with np.unique over edge rows (axis=0), kept verbatim."""
    nv = vertices.shape[0]
    edges = np.sort(np.stack([faces.ravel(), faces[[1, 2, 0]].ravel()], axis=1), axis=1)
    unique_edges, inverse = np.unique(edges, axis=0, return_inverse=True)
    midpoints = vertices[unique_edges[:, 0]] + vertices[unique_edges[:, 1]]
    midpoints /= np.linalg.norm(midpoints, axis=1, keepdims=True)
    vertices = np.vstack([vertices, midpoints])
    a, b, c = faces
    ab, bc, ca = (nv + inverse).reshape(3, -1)
    quads = np.stack([[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]], axis=-1)
    return vertices, quads.reshape(3, -1)


@functools.lru_cache(maxsize=None)
def whole_icosphere(depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertices (V, 3) and faces (3, F) of the whole depth-d icosphere, all 20 * 4^d faces.

    Each depth subdivides all faces of the one above it, so faces [0, F/2)
    are those of ``icosphere(depth)``, in its order, and the rest are their
    antipodes.  The arrays are read-only, since they are cached.
    """
    if depth == 0:
        vertices, faces = _ICO_VERTICES.copy(), _ICO_FACES.T.copy()
    else:
        vertices, faces = _ref_subdivide(*whole_icosphere(depth - 1))
    vertices.flags.writeable = faces.flags.writeable = False
    return vertices, faces


def two_pass_metric(basis, nodes: np.ndarray) -> np.ndarray:
    """det Gram, the max |A - C(I - x x^T)| entry and |f|^2 at each node, shape (3, P).

    The two-pass form of ``embedding._node_metric``, kept as its reference:
    per block of ``point_blocks``, one gradient call whose (P, N, n+1)
    tensor gives A by ``einsum("pk,pk->p")`` over its strided rows, then a
    second, values-only call for |f|^2.
    """
    entries = {1: ((0, 0), (1, 1), (0, 1)), 2: ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))}
    det, deviation, sq_norm = out = np.empty((3, nodes.shape[0]))
    for block in point_blocks(basis, nodes.shape[0]):
        x = nodes[block]
        grads = eval_gradient_many(basis, x).transpose(2, 0, 1)    # (n+1, P, N)
        a, residual = {}, np.zeros(len(x))
        for i, j in entries[basis.sphere_dim]:
            a[i, j] = np.einsum("pk,pk->p", grads[i], grads[j])
            target = basis.dilation_constant * ((i == j) - x[:, i] * x[:, j])
            np.maximum(residual, np.abs(a[i, j] - target), out=residual)
        if basis.sphere_dim == 1:
            det[block] = a[0, 0] + a[1, 1]
        else:
            det[block] = sum(a[i, i] * a[j, j] - a[i, j] ** 2 for i, j in ((0, 1), (0, 2), (1, 2)))
        deviation[block] = residual
        values = eval_basis_many(basis, x)
        sq_norm[block] = np.einsum("pk,pk->p", values, values)
    return out
