"""The quadtree numbering of icosphere faces."""

import numpy as np
import pytest

from sphere_zeros.icosphere import children, icosphere


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
