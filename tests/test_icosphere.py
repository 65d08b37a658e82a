"""Quadtree numbering of icosphere faces, the bits of each mesh, and their antipodes.

A mesh is the searched half of an icosphere; the whole icosphere, with both
halves, is the reference ``oracles.whole_icosphere``.
"""

import numpy as np
import pytest

from sphere_zeros.icosphere import (
    _geodesic,
    _unit,
    face_geometry,
    icosphere,
    quadrisect,
    spherical_face_areas,
)

from oracles import whole_icosphere


def _children(faces):
    """The faces 4p..4p+3 one depth deeper, per face p."""
    return (4 * faces[:, None] + np.arange(4)).ravel()


def _all_centroids(depth):
    """Unit centroids of every face of the whole depth-d icosphere, from its corners."""
    vertices, faces = whole_icosphere(depth)
    return face_geometry(*vertices[faces])[0]


def _inside(depth, faces, points):
    """Mask of the points strictly inside the spherical triangle of their depth-d face."""
    vertices, all_faces = whole_icosphere(depth)
    v0, v1, v2 = vertices[all_faces[:, faces]]
    orientation = np.sign(np.einsum("fi,fi->f", v0, np.cross(v1, v2)))
    edges = ((v0, v1), (v1, v2), (v2, v0))
    sides = [np.einsum("fi,fi->f", np.cross(a, b), points) for a, b in edges]
    return (orientation * np.array(sides) > 0.0).all(axis=0)


class TestQuadtreeNumbering:
    @pytest.mark.parametrize("depth", range(6))
    def test_children_of_face_p_are_4p_to_4p_plus_3(self, depth):
        (parent_vertices, parent_faces), (_, child_faces) = map(whole_icosphere, (depth, depth + 1))
        faces = np.arange(parent_faces.shape[1])
        kids = _children(faces).reshape(-1, 4)
        assert child_faces.shape[1] == kids.size
        # The centroid of child 4p + k lies inside face p.
        centroids = _all_centroids(depth + 1)[kids.ravel()]
        assert _inside(depth, np.repeat(faces, 4), centroids).all()
        # Child k < 3 keeps corner k of p; the centre child has midpoints only.
        for k in range(3):
            assert (child_faces[:, kids[:, k]] == parent_faces[k]).any(axis=0).all()
        assert (child_faces[:, kids[:, 3]] >= parent_vertices.shape[0]).all()

    @pytest.mark.parametrize("depth", range(7))
    def test_descendants_of_an_icosahedron_face_are_one_block(self, depth):
        block = 4**depth
        for j in range(20):
            faces = np.array([j])
            for _ in range(depth):
                faces = _children(faces)
            assert np.array_equal(faces, np.arange(j * block, (j + 1) * block))
        num_faces = whole_icosphere(depth)[1].shape[1]
        assert num_faces == 20 * block
        assert _inside(0, np.arange(num_faces) // block, _all_centroids(depth)).all()


def _same_bits(a, b):
    same_signs = np.array_equal(np.signbit(a), np.signbit(b))
    return a.shape == b.shape and np.array_equal(a, b) and same_signs


def _ref_geometry(vertices, faces):
    """Centroids, centroid reaches and longest edge of every face, kept verbatim."""
    v0, v1, v2 = vertices[faces]
    centroids = v0 + v1 + v2
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
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
    return centroids, reach, max_edge


class TestMeshBits:
    @pytest.mark.parametrize("depth", range(7))
    def test_children_of_any_faces_have_the_bits_of_the_deeper_mesh(self, depth):
        # Per-face data is computed face by face: any subset of faces, split
        # by ``quadrisect`` as corner rows or one coordinate at a time, gives
        # its children's corners and geometry with the bits of the whole
        # deeper mesh.
        (parent_vertices, parent_faces), (child_vertices, child_faces) = map(
            whole_icosphere, (depth, depth + 1)
        )
        num_faces = parent_faces.shape[1]
        rng = np.random.default_rng(depth)
        some = np.sort(rng.choice(num_faces, size=min(37, num_faces), replace=False))
        for faces in (np.arange(num_faces), some):
            a, b, c = parent_vertices[parent_faces[:, faces]]
            mids = _unit(a + b), _unit(b + c), _unit(c + a)
            kids = quadrisect(a, b, c, *mids)
            per_coordinate = np.stack(
                [quadrisect(*(v[:, j] for v in (a, b, c, *mids))) for j in range(3)], axis=-1
            )
            assert _same_bits(kids, per_coordinate)
            ids = _children(faces)
            assert _same_bits(kids, child_vertices[child_faces[:, ids]])
            centroids, reach = face_geometry(*kids)
            whole = face_geometry(*child_vertices[child_faces])
            assert _same_bits(centroids, whole[0][ids])
            assert _same_bits(reach, whole[1][ids])

    @pytest.mark.parametrize("depth", range(8))
    def test_mesh_has_the_bits_of_the_whole_meshs_first_half(self, depth):
        mesh, (vertices, faces) = icosphere(depth), whole_icosphere(depth)
        first_half = faces[:, : faces.shape[1] // 2]
        centroids, reach, max_edge = _ref_geometry(vertices, first_half)
        assert _same_bits(mesh.centroids, centroids)
        assert _same_bits(mesh.centroid_reach, reach)
        assert _same_bits(mesh.areas, spherical_face_areas(*vertices[first_half]))
        assert mesh.max_edge == max_edge

    def test_only_the_depth_asked_for_is_cached(self):
        icosphere.cache_clear()
        icosphere(6)
        assert icosphere.cache_info().currsize == 1

    @pytest.mark.parametrize("depth", [-1, -2])
    def test_negative_depth_is_rejected(self, depth):
        with pytest.raises(ValueError, match="depth must be >= 0"):
            icosphere(depth)


def _arc(a, b):
    """Geodesic distances between rows of unit vectors, accurate near zero."""
    return 2.0 * np.arcsin(np.minimum(np.linalg.norm(a - b, axis=-1), 2.0) / 2.0)


class TestFaceBounds:
    """The per-face reaches that the zero finder's exclusion test and Newton caps rely on."""

    @pytest.mark.parametrize("depth", range(8))
    def test_every_point_of_a_face_is_within_its_bounds(self, depth):
        # Random points of up to 4000 faces of the half, their edge midpoints and centroids.
        mesh, (vertices, all_faces) = icosphere(depth), whole_icosphere(depth)
        rng = np.random.default_rng([depth, 3])
        half = all_faces.shape[1] // 2
        faces = np.sort(rng.choice(half, size=min(half, 4000), replace=False))
        v0, v1, v2 = vertices[all_faces[:, faces]]
        weights = np.vstack([
            rng.dirichlet([1.0, 1.0, 1.0], size=64),
            [[1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]],
        ])
        pts = _unit(np.einsum("wk,kfi->wfi", weights, np.stack([v0, v1, v2])))
        assert np.all(_arc(pts, mesh.centroids[faces]) <= mesh.centroid_reach[faces])
        # A zero in a kept face is within one longest edge of its Newton start.
        assert mesh.centroid_reach.max() < mesh.max_edge
        # max_edge takes arccos of dot products, which rounds to ~eps / edge.
        edges = np.concatenate([_arc(v0, v1), _arc(v1, v2), _arc(v2, v0)])
        assert np.max(edges) <= mesh.max_edge + 1e-12


def _antipodal_faces(vertices, faces):
    """For each face p, the face whose corners are the negated corners of p."""
    nv = vertices.shape[0]
    # Midpoints of negated vertices are the negated midpoints, to the bit, so
    # sorting the vertices and their negations pairs them exactly.
    antipode = np.empty(nv, dtype=np.int64)
    antipode[np.lexsort((-vertices).T)] = np.lexsort(vertices.T)
    assert np.array_equal(vertices[antipode], -vertices)

    def keys(faces):
        a, b, c = np.sort(faces, axis=0)
        return (a * nv + b) * nv + c

    own = keys(faces)
    order = np.argsort(own)
    found = order[np.searchsorted(own, keys(antipode[faces]), sorter=order)]
    assert np.array_equal(own[found], keys(antipode[faces]))
    return found


class TestAntipodalHalf:
    @pytest.mark.parametrize("depth", range(7))
    def test_first_half_and_its_antipodes_tile_the_sphere(self, depth):
        # The S2 embedding quadrature and the zero finder read faces [0, F/2) only.
        mesh, (vertices, faces) = icosphere(depth), whole_icosphere(depth)
        num_faces = faces.shape[1]
        half = num_faces // 2
        antipodes = _antipodal_faces(vertices, faces)
        assert np.array_equal(np.sort(antipodes[:half]), np.arange(half, num_faces))
        assert np.array_equal(antipodes[antipodes], np.arange(num_faces))
        # The negated centroids of the second half are the first half's centroids.
        centroids = _all_centroids(depth)
        assert np.max(np.abs(-centroids[antipodes[:half]] - mesh.centroids)) <= 1e-15
        areas = spherical_face_areas(*vertices[faces])
        assert np.max(np.abs(areas[antipodes[:half]] - mesh.areas)) <= 1e-15
        assert abs(2.0 * np.sum(mesh.areas) - 4.0 * np.pi) <= 1e-12
