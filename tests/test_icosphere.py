"""Quadtree numbering of icosphere faces, the refinement of some of them, and their antipodes."""

import numpy as np
import pytest

from sphere_zeros.icosphere import (
    _ICO_FACES,
    _ICO_VERTICES,
    _geodesic,
    _max_edge,
    children,
    edge_midpoints,
    face_geometry,
    icosphere,
    longest_edge,
    quadrisect,
    spherical_face_areas,
)


def _inside(mesh, faces, points):
    """Mask of the points strictly inside the spherical triangle of their face."""
    v0, v1, v2 = mesh.vertices[mesh.faces[:, faces]]
    orientation = np.sign(np.einsum("fi,fi->f", v0, np.cross(v1, v2)))
    edges = ((v0, v1), (v1, v2), (v2, v0))
    sides = [np.einsum("fi,fi->f", np.cross(a, b), points) for a, b in edges]
    return (orientation * np.array(sides) > 0.0).all(axis=0)


class TestQuadtreeNumbering:
    @pytest.mark.parametrize("depth", range(6))
    def test_children_of_face_p_are_4p_to_4p_plus_3(self, depth):
        parent, child = icosphere(depth), icosphere(depth + 1)
        faces = np.arange(parent.num_faces)
        kids = children(faces).reshape(-1, 4)
        assert np.array_equal(kids, 4 * faces[:, None] + np.arange(4))
        assert child.num_faces == kids.size
        # The centroid of child 4p + k lies inside face p.
        assert _inside(parent, np.repeat(faces, 4), child.centroids[kids.ravel()]).all()
        # Child k < 3 keeps corner k of p; the centre child has midpoints only.
        for k in range(3):
            assert (child.faces[:, kids[:, k]] == parent.faces[k]).any(axis=0).all()
        assert (child.faces[:, kids[:, 3]] >= parent.vertices.shape[0]).all()

    @pytest.mark.parametrize("depth", range(7))
    def test_descendants_of_an_icosahedron_face_are_one_block(self, depth):
        block = 4**depth
        for j in range(20):
            faces = np.array([j])
            for _ in range(depth):
                faces = children(faces)
            assert np.array_equal(faces, np.arange(j * block, (j + 1) * block))
        mesh = icosphere(depth)
        assert mesh.num_faces == 20 * block
        assert _inside(icosphere(0), np.arange(mesh.num_faces) // block, mesh.centroids).all()

    def test_children_of_a_sorted_pool_are_sorted(self):
        pool = np.array([3, 17, 40, 41])
        kids = children(pool)
        assert np.array_equal(kids, np.sort(kids))
        assert np.array_equal(kids // 4, np.repeat(pool, 4))
        assert children(np.array([], dtype=np.int64)).shape == (0,)


def _same_bits(a, b):
    same_signs = np.array_equal(np.signbit(a), np.signbit(b))
    return a.shape == b.shape and np.array_equal(a, b) and same_signs


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


def _ref_geometry(vertices, faces):
    """Centroids, covering radii, centroid reaches and longest edge, kept verbatim."""
    v0, v1, v2 = vertices[faces]
    centroids = v0 + v1 + v2
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
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
    return centroids, circumradius, reach, max_edge


class TestMeshBits:
    def test_meshes_match_the_edge_row_construction(self):
        vertices, faces = _ICO_VERTICES.copy(), _ICO_FACES.T.copy()
        for depth in range(7):
            if depth:
                vertices, faces = _ref_subdivide(vertices, faces)
            mesh = icosphere(depth)
            assert np.array_equal(mesh.faces, faces)
            assert _same_bits(mesh.vertices, vertices)
            centroids, radius, reach, max_edge = _ref_geometry(vertices, faces)
            assert _same_bits(mesh.centroids, centroids)
            assert _same_bits(mesh.covering_radius, radius)
            assert _same_bits(mesh.centroid_reach, reach)
            assert mesh.max_edge == max_edge

    @pytest.mark.parametrize("depth", range(7))
    def test_children_of_any_faces_have_the_bits_of_the_deeper_mesh(self, depth):
        parent, child = icosphere(depth), icosphere(depth + 1)
        rng = np.random.default_rng(depth)
        some = np.sort(rng.choice(parent.num_faces, size=min(37, parent.num_faces), replace=False))
        for faces in (np.arange(parent.num_faces), some):
            corners = parent.vertices[parent.faces[:, faces]]
            kids = quadrisect(*corners, *edge_midpoints(corners))
            ids = children(faces)
            assert _same_bits(kids, child.vertices[child.faces[:, ids]])
            centroids, radius, reach = face_geometry(*kids)
            assert _same_bits(centroids, child.centroids[ids])
            assert _same_bits(radius, child.covering_radius[ids])
            assert _same_bits(reach, child.centroid_reach[ids])

    @pytest.mark.parametrize("depth", range(9))
    def test_longest_edge_is_the_mesh_max_edge(self, depth):
        # Depth 8 is built without entering the mesh cache, which keeps the test process small.
        mesh = icosphere(depth) if depth < 8 else icosphere.__wrapped__(depth)
        assert longest_edge(depth) == mesh.max_edge

    def test_longest_edge_at_depth_9_is_the_refined_faces_max_edge(self):
        # The depth-9 mesh has 5.2M faces; the walk refines 16 faces at a time.
        assert longest_edge(9) == _walk_longest_edge(9)

    @pytest.mark.parametrize("depth", [-1, 10])
    def test_longest_edge_outside_the_table_is_rejected(self, depth):
        with pytest.raises(ValueError, match="depths 0-9"):
            longest_edge(depth)


def _walk_longest_edge(depth):
    """The longest edge of the depth-d mesh, by refining the faces of a mesh up to six depths
    shallower 16 at a time, at most 4^8 faces at once; kept verbatim as the table's reference."""
    top = icosphere(max(0, depth - 6))
    corners = top.vertices[top.faces]
    edge = 0.0
    for lo in range(0, top.num_faces, 16):
        chunk = corners[:, lo : lo + 16]
        for _ in range(depth - top.depth):
            chunk = quadrisect(*chunk, *edge_midpoints(chunk))
        edge = max(edge, _max_edge(*chunk))
    return edge


def _antipodal_faces(mesh):
    """For each face p, the face whose corners are the negated corners of p."""
    vertices, nv = mesh.vertices, mesh.vertices.shape[0]
    # Midpoints of negated vertices are the negated midpoints, to the bit, so
    # sorting the vertices and their negations pairs them exactly.
    antipode = np.empty(nv, dtype=np.int64)
    antipode[np.lexsort((-vertices).T)] = np.lexsort(vertices.T)
    assert np.array_equal(vertices[antipode], -vertices)

    def keys(faces):
        a, b, c = np.sort(faces, axis=0)
        return (a * nv + b) * nv + c

    own = keys(mesh.faces)
    order = np.argsort(own)
    found = order[np.searchsorted(own, keys(antipode[mesh.faces]), sorter=order)]
    assert np.array_equal(own[found], keys(antipode[mesh.faces]))
    return found


class TestAntipodalHalf:
    @pytest.mark.parametrize("depth", range(7))
    def test_first_half_and_its_antipodes_tile_the_sphere(self, depth):
        # The S2 embedding quadrature integrates over faces [0, F/2) only.
        mesh = icosphere(depth)
        half = mesh.num_faces // 2
        antipodes = _antipodal_faces(mesh)
        assert np.array_equal(np.sort(antipodes[:half]), np.arange(half, mesh.num_faces))
        assert np.array_equal(antipodes[antipodes], np.arange(mesh.num_faces))
        # The negated centroids of the second half are the first half's centroids.
        assert np.max(np.abs(-mesh.centroids[antipodes[:half]] - mesh.centroids[:half])) <= 1e-15
        areas = spherical_face_areas(*mesh.vertices[mesh.faces])
        assert np.max(np.abs(areas[antipodes[:half]] - areas[:half])) <= 1e-15
        assert abs(2.0 * np.sum(areas[:half]) - 4.0 * np.pi) <= 1e-12
