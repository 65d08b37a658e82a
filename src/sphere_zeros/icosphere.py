"""Geodesic icosphere meshes: subdivided icosahedra projected to the unit sphere.

Depth d has 20 * 4^d triangles and 10 * 4^d + 2 vertices.  Faces are
numbered as a quadtree: the children of face p are faces 4p..4p+3 one depth
deeper (``children``), so the descendants of icosahedron face j at depth d
are the block [j * 4^d, (j + 1) * 4^d).  Icosahedron faces 10-19 are the
antipodes of faces 0-9 and every vertex has its negation among the
vertices, so at every depth the first half of the faces and its antipodes
tile S2.  Meshes carry the per-face geometry the zero finder's exclusion
tests need: geodesic covering radii (max distance from any interior point to
the nearest vertex) and max distances from the centroid, both exact up to
the spherical-triangle approximations documented below.  Meshes are cached.
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
    faces: np.ndarray         # (3, F) vertex indices, corner-major
    centroids: np.ndarray     # (F, 3) unit vectors
    covering_radius: np.ndarray   # (F,) geodesic bound: point -> nearest vertex
    centroid_reach: np.ndarray    # (F,) geodesic bound: centroid -> any point
    max_edge: float           # largest geodesic edge length in the mesh

    @property
    def num_faces(self) -> int:
        return self.faces.shape[1]


def _subdivide(vertices: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint quadrisection of (3, F) faces into faces 4p..4p+3 per face p.

    Child k < 3 keeps corner k of p as its corner 0; child 3 is the centre.
    """
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


def children(faces: np.ndarray) -> np.ndarray:
    """The faces one depth deeper that subdivide ``faces``; ascending for an ascending input."""
    return (4 * faces[:, None] + np.arange(4)).ravel()


@functools.lru_cache(maxsize=10)
def icosphere(depth: int) -> SphereMesh:
    """The depth-d geodesic icosphere with cached per-face geometry."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth == 0:
        vertices, faces = _ICO_VERTICES.copy(), _ICO_FACES.T.copy()
    else:
        parent = icosphere(depth - 1)
        vertices, faces = _subdivide(parent.vertices, parent.faces)

    v0, v1, v2 = vertices[faces]
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
    v0, v1, v2 = mesh.vertices[mesh.faces]
    numer = np.abs(np.einsum("fi,fi->f", v0, np.cross(v1, v2)))
    denom = (
        1.0
        + np.einsum("fi,fi->f", v0, v1)
        + np.einsum("fi,fi->f", v1, v2)
        + np.einsum("fi,fi->f", v2, v0)
    )
    return 2.0 * np.arctan2(numer, denom)
