"""Geodesic icosphere meshes: subdivided icosahedra projected to the unit sphere.

A mesh is the searched half of the depth-d icosphere: the 10 * 4^d faces
[0, F/2) of its F = 20 * 4^d, the descendants of icosahedron faces 0-9.  The
children of face p are faces 4p..4p+3 one depth deeper, so the descendants of
icosahedron face j are the block [j * 4^d, (j + 1) * 4^d).  Faces 10-19 are
the antipodes of faces 0-9, so the half and its antipodes tile S2, all that
the zero finder and the S2 image volume need.  Each depth splits the faces'
corners at their unit edge midpoints, with no vertex table: a midpoint shared
by two faces is computed in each, with the same bits, as float addition
commutes.  A mesh carries unit centroids, centroid reaches (to the farthest
corner), exact spherical areas and the longest edge, which the antipodes
share to the bit.  Only the depths asked for are cached.
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
    """The geometry of faces [0, F/2) of an icosphere, whose antipodes are the rest."""

    depth: int
    centroids: np.ndarray     # (F/2, 3) unit vectors
    centroid_reach: np.ndarray    # (F/2,) geodesic bound: centroid -> any point of the face
    areas: np.ndarray         # (F/2,) exact spherical areas
    max_edge: float           # largest geodesic edge length in the mesh


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def quadrisect(a, b, c, ab, bc, ca) -> np.ndarray:
    """Data (3, 4F, ...) at the children's corners of F faces, from the data (F, ...) at their
    corners and edge midpoints: one coordinate (F,) or corner rows (F, 3).  The children of face
    p are 4p..4p+3; child k < 3 keeps corner k of p as its corner 0, and child 3 is the centre."""
    quads = np.stack([[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]], axis=2)
    return quads.reshape(3, -1, *np.shape(a)[1:])


def face_geometry(v0, v1, v2) -> tuple[np.ndarray, np.ndarray]:
    """Unit centroids (F, 3) and centroid reaches (F,) of faces with corners (F, 3)."""
    centroids = _unit(v0 + v1 + v2)
    reach = np.max([_geodesic(np.einsum("fi,fi->f", centroids, v)) for v in (v0, v1, v2)], axis=0)
    return centroids, reach


def _max_edge(v0, v1, v2) -> float:
    """The longest geodesic edge of faces with corners (F, 3), F >= 1."""
    edges = ((v0, v1), (v1, v2), (v2, v0))
    return max(float(_geodesic(np.einsum("fi,fi->f", a, b)).max()) for a, b in edges)


@functools.lru_cache(maxsize=10)
def icosphere(depth: int) -> SphereMesh:
    """The geometry of faces [0, F/2) of the depth-d icosphere, icosahedron faces 0-9 subdivided."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    corners = _ICO_VERTICES[_ICO_FACES[:10].T]
    for _ in range(depth):
        a, b, c = corners
        corners = quadrisect(a, b, c, _unit(a + b), _unit(b + c), _unit(c + a))
    centroids, reach = face_geometry(*corners)
    return SphereMesh(depth, centroids, reach, spherical_face_areas(*corners), _max_edge(*corners))


def spherical_face_areas(v0, v1, v2) -> np.ndarray:
    """Exact spherical areas (solid angles) of faces with corners (F, 3).

    The areas of all faces of a mesh sum to 4*pi.
    """
    numer = np.abs(np.einsum("fi,fi->f", v0, np.cross(v1, v2)))
    denom = (
        1.0
        + np.einsum("fi,fi->f", v0, v1)
        + np.einsum("fi,fi->f", v1, v2)
        + np.einsum("fi,fi->f", v2, v0)
    )
    return 2.0 * np.arctan2(numer, denom)
