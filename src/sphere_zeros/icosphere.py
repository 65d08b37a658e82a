"""Geodesic icosphere meshes: subdivided icosahedra projected to the unit sphere.

Depth d has 20 * 4^d triangles and 10 * 4^d + 2 vertices.  Meshes carry the
per-face geometry the zero finder's exclusion tests need: geodesic covering
radii (max distance from any interior point to the nearest vertex) and max
distances from the centroid, both exact up to the spherical-triangle
approximations documented below.  Meshes and derived arrays are cached.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

_PHI = (1.0 + np.sqrt(5.0)) / 2.0

_ICO_VERTICES = np.array(
    [
        [-1.0, _PHI, 0.0],
        [1.0, _PHI, 0.0],
        [-1.0, -_PHI, 0.0],
        [1.0, -_PHI, 0.0],
        [0.0, -1.0, _PHI],
        [0.0, 1.0, _PHI],
        [0.0, -1.0, -_PHI],
        [0.0, 1.0, -_PHI],
        [_PHI, 0.0, -1.0],
        [_PHI, 0.0, 1.0],
        [-_PHI, 0.0, -1.0],
        [-_PHI, 0.0, 1.0],
    ]
)
_ICO_VERTICES /= np.linalg.norm(_ICO_VERTICES, axis=1, keepdims=True)

_ICO_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [5, 4, 9], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ],
    dtype=np.int64,
)


def _geodesic(dots: np.ndarray) -> np.ndarray:
    return np.arccos(np.clip(dots, -1.0, 1.0))


@dataclass(frozen=True)
class SphereMesh:
    """A triangulation of S2 with precomputed per-face geometry."""

    depth: int
    vertices: np.ndarray      # (V, 3) unit vectors
    faces: np.ndarray         # (F, 3) vertex indices
    centroids: np.ndarray     # (F, 3) unit vectors
    covering_radius: np.ndarray   # (F,) geodesic bound: point -> nearest vertex
    centroid_reach: np.ndarray    # (F,) geodesic bound: centroid -> any point
    max_edge: float           # largest geodesic edge length in the mesh

    @property
    def num_faces(self) -> int:
        return self.faces.shape[0]


def _subdivide(vertices: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    nv = vertices.shape[0]
    nf = faces.shape[0]
    edges = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    edges.sort(axis=1)
    unique_edges, inverse = np.unique(edges, axis=0, return_inverse=True)
    midpoints = vertices[unique_edges[:, 0]] + vertices[unique_edges[:, 1]]
    midpoints /= np.linalg.norm(midpoints, axis=1, keepdims=True)
    vertices = np.vstack([vertices, midpoints])
    m01 = nv + inverse[:nf]
    m12 = nv + inverse[nf : 2 * nf]
    m20 = nv + inverse[2 * nf :]
    faces = np.concatenate(
        [
            np.stack([faces[:, 0], m01, m20], axis=1),
            np.stack([faces[:, 1], m12, m01], axis=1),
            np.stack([faces[:, 2], m20, m12], axis=1),
            np.stack([m01, m12, m20], axis=1),
        ]
    )
    return vertices, faces


@functools.lru_cache(maxsize=10)
def icosphere(depth: int) -> SphereMesh:
    """The depth-d geodesic icosphere with cached per-face geometry."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth == 0:
        vertices, faces = _ICO_VERTICES.copy(), _ICO_FACES.copy()
    else:
        parent = icosphere(depth - 1)
        vertices, faces = _subdivide(parent.vertices, parent.faces)

    v0, v1, v2 = (vertices[faces[:, k]] for k in range(3))
    centroids = v0 + v1 + v2
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)

    # Covering radius: every point of a (small, nearly equilateral) spherical
    # triangle is within the circumradius of its nearest vertex.  The
    # spherical circumcenter is the unit normal of the plane through the
    # three vertices, oriented toward the centroid.
    normal = np.cross(v1 - v0, v2 - v0)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    flip = np.einsum("fi,fi->f", normal, centroids) < 0.0
    normal[flip] *= -1.0
    circumradius = _geodesic(np.einsum("fi,fi->f", normal, v0))

    reach = np.maximum(
        _geodesic(np.einsum("fi,fi->f", centroids, v0)),
        np.maximum(
            _geodesic(np.einsum("fi,fi->f", centroids, v1)),
            _geodesic(np.einsum("fi,fi->f", centroids, v2)),
        ),
    )

    max_edge = 0.0
    for a, b in ((v0, v1), (v1, v2), (v2, v0)):
        max_edge = max(max_edge, float(_geodesic(np.einsum("fi,fi->f", a, b)).max()))

    return SphereMesh(
        depth=depth,
        vertices=vertices,
        faces=faces,
        centroids=centroids,
        covering_radius=circumradius,
        centroid_reach=reach,
        max_edge=max_edge,
    )


def spherical_face_areas(mesh: SphereMesh) -> np.ndarray:
    """Exact spherical areas (solid angles) of all faces; they sum to 4*pi."""
    v0 = mesh.vertices[mesh.faces[:, 0]]
    v1 = mesh.vertices[mesh.faces[:, 1]]
    v2 = mesh.vertices[mesh.faces[:, 2]]
    numer = np.abs(np.einsum("fi,fi->f", v0, np.cross(v1, v2)))
    denom = (
        1.0
        + np.einsum("fi,fi->f", v0, v1)
        + np.einsum("fi,fi->f", v1, v2)
        + np.einsum("fi,fi->f", v2, v0)
    )
    return 2.0 * np.arctan2(numer, denom)


@functools.lru_cache(maxsize=10)
def half_mesh(depth: int) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Faces of the depth-d icosphere descended from icosahedron faces 0-9, cached read-only.

    Face i descends from icosahedron face i mod 20, and faces 10-19 are the
    antipodes of faces 0-9, so these faces and their antipodes tile S2.
    Returns the face indices, their corner vertex indices (one array per
    corner) and their covering radii.
    """
    mesh = icosphere(depth)
    faces = np.flatnonzero(np.arange(mesh.num_faces) % 20 < 10)
    corners = [mesh.faces[:, k][faces] for k in range(3)]
    cov = mesh.covering_radius[faces]
    for a in (faces, *corners, cov):
        a.flags.writeable = False
    return faces, corners, cov
