"""Radius, dilation, covering degree, and image volume of the joint eigenbasis map."""

import dataclasses
import math

import numpy as np
import pytest

from sphere_zeros import (
    SphereInputError,
    UnexpectedFiberError,
    build_basis,
    covering_degree,
    dilation_check,
    embedding,
    harmonics,
    image_volume,
)
from sphere_zeros.harmonics import (
    eval_basis_many,
    eval_gradient_many,
    point_blocks,
    random_sphere_points,
    unsold_residual,
)
from sphere_zeros.icosphere import icosphere

from oracles import tangent_frames, two_pass_metric, whole_icosphere


class TestRadius:
    def test_degree1_sphere(self):
        basis = build_basis(2, 1)
        assert basis.unsold_constant == pytest.approx(3.0 / (4.0 * math.pi), rel=1e-14)
        points = random_sphere_points(2, 100, np.random.default_rng(0))
        assert unsold_residual(basis, points) <= 1e-8

    @pytest.mark.parametrize("m", [1, 2, 5, 9])
    def test_circle_any_degree(self, m):
        basis = build_basis(1, m)
        assert basis.unsold_constant == pytest.approx(1.0 / math.pi, rel=1e-14)
        residual = unsold_residual(basis, random_sphere_points(1, 50, np.random.default_rng(m)))
        assert residual <= 1e-10 / basis.unsold_constant

    def test_degree4_sphere(self):
        basis = build_basis(2, 4)
        assert basis.unsold_constant == pytest.approx(9.0 / (4.0 * math.pi), rel=1e-14)
        points = random_sphere_points(2, 100, np.random.default_rng(1))
        assert unsold_residual(basis, points) <= 1e-8


class TestDilation:
    def test_degree1_constant(self):
        basis = build_basis(2, 1)
        target = 3.0 / (4.0 * math.pi)      # lam*N/(n*vol) = 2*3/(2*4pi)
        assert basis.dilation_constant == pytest.approx(target, rel=1e-14)
        rng = np.random.default_rng(2)
        for point in random_sphere_points(2, 20, rng):
            assert dilation_check(basis, point) <= 1e-6 * target

    @pytest.mark.parametrize("m", range(1, 11))
    def test_gram_residual_random_points(self, m):
        basis = build_basis(2, m)
        rng = np.random.default_rng(m)
        worst = max(dilation_check(basis, p) for p in random_sphere_points(2, 100, rng))
        assert worst <= 1e-6 * basis.dilation_constant

    def test_trace_equals_gradient_sum(self):
        # Gram trace identity ties the dilation to the pointwise gradient sum.
        basis = build_basis(2, 6)
        rng = np.random.default_rng(3)
        for point in random_sphere_points(2, 25, rng):
            grads = eval_gradient_many(basis, point[None])[0]
            trace = float(np.sum(grads * grads))
            assert trace == pytest.approx(basis.gradient_sum_constant, rel=1e-12)
            assert trace == pytest.approx(2.0 * basis.dilation_constant, rel=1e-12)

    def test_circle_degree3_direct_differentiation_oracle(self):
        basis = build_basis(1, 3)
        assert basis.dilation_constant == pytest.approx(9.0 / math.pi, rel=1e-14)
        # Central finite differences of t -> f(cos t, sin t), no gradient code.
        h = 1e-6
        rng = np.random.default_rng(4)
        for _ in range(10):
            t = rng.uniform(0.0, 2.0 * math.pi)
            plus = np.array([[math.cos(t + h), math.sin(t + h)]])
            minus = np.array([[math.cos(t - h), math.sin(t - h)]])
            deriv = (eval_basis_many(basis, plus) - eval_basis_many(basis, minus))[0] / (2.0 * h)
            assert float(deriv @ deriv) == pytest.approx(9.0 / math.pi, rel=1e-6)

    def test_rejects_off_sphere(self):
        with pytest.raises(SphereInputError):
            dilation_check(build_basis(2, 2), np.array([0.0, 0.0, 2.0]))


def _ref_gram(basis, nodes):
    """Gram matrices of the differential in orthonormal tangent frames, shape (n, n, P).

    The frame-projected metric that the frame-free one replaced, kept
    verbatim but for reading the gradients through the ``embedding`` module,
    so that a test can swap them for both.
    """
    grads = embedding.eval_gradient_many(basis, nodes)   # (P, N, n+1)
    frames = tangent_frames(nodes)                        # (P, n, n+1)
    d = [np.einsum("pkj,pj->pk", grads, frames[:, i]) for i in range(basis.sphere_dim)]
    return np.array([[np.einsum("pk,pk->p", a, b) for b in d] for a in d])


METRIC_CASES = [(2, m) for m in range(1, 25)] + [(1, m) for m in range(1, 51)]


class TestFrameFreeMetric:
    @pytest.mark.parametrize("scaled", [False, True], ids=["basis", "scaled"])
    @pytest.mark.parametrize("sphere, m", METRIC_CASES)
    def test_matches_the_frame_projection(self, sphere, m, scaled, monkeypatch):
        # "scaled" replaces the gradient rows of f_k by s_k grad f_k, s_k in
        # [0.5, 1.5], in the kernel blocks that both the metric and the
        # reference read, so that Gram is far from C*I and the residual
        # identity is tested away from 0.
        basis = build_basis(sphere, m)
        rng = np.random.default_rng([sphere, m, int(scaled)])
        nodes = random_sphere_points(sphere, 200, rng)
        if scaled:
            scale = rng.uniform(0.5, 1.5, basis.dimension)[:, None]
            blocks = harmonics.kernel_blocks

            def scaled_blocks(b, p, want_gradient):
                for block, parts in blocks(b, p, want_gradient):
                    parts[1:] *= scale
                    yield block, parts

            monkeypatch.setattr(harmonics, "kernel_blocks", scaled_blocks)
            monkeypatch.setattr(embedding, "kernel_blocks", scaled_blocks)
        c = basis.dilation_constant
        gram = _ref_gram(basis, nodes)
        det, residual, _ = embedding._node_metric(basis, nodes)
        ref_det = gram[0, 0] if sphere == 1 else gram[0, 0] * gram[1, 1] - gram[0, 1] ** 2
        assert np.max(np.abs(det - ref_det) / ref_det) <= 1e-13
        grads = embedding.eval_gradient_many(basis, nodes)
        a = np.einsum("pki,pkj->pij", grads, grads) - c * (
            np.eye(sphere + 1) - np.einsum("pi,pj->pij", nodes, nodes)
        )
        frobenius = np.linalg.norm(a, axis=(1, 2))
        ref_frobenius = np.linalg.norm(gram - c * np.eye(sphere)[:, :, None], axis=(0, 1))
        assert np.max(np.abs(frobenius - ref_frobenius)) <= 1e-13 * c
        assert np.max(np.abs(residual - np.max(np.abs(a), axis=(1, 2)))) <= 1e-13 * c

    @pytest.mark.parametrize("sphere, m", [(2, 1), (2, 4), (2, 12), (2, 24), (1, 3), (1, 8)])
    def test_dilation_check_has_the_bits_of_the_quadrature_residual(self, sphere, m, monkeypatch):
        basis = build_basis(sphere, m)
        calls = []
        metric = embedding._node_metric
        monkeypatch.setattr(
            embedding, "_node_metric", lambda b, p: calls.append((p, metric(b, p))) or calls[-1][1]
        )
        report = image_volume(basis, quadrature_depth=2)
        nodes = np.concatenate([p for p, _ in calls])
        residual = np.concatenate([r[1] for _, r in calls])
        assert float(np.max(residual)) == report.max_gram_residual
        for i in range(0, len(nodes), 7):
            assert dilation_check(basis, nodes[i]) == residual[i], i


FUSED_CASES = [(1, m) for m in (1, 3, 8, 50)] + [(2, m) for m in (1, 2, 4, 12, 24, 50)]


class TestFusedMetric:
    @pytest.mark.parametrize("small_blocks", [False, True], ids=["default_blocks", "small_blocks"])
    @pytest.mark.parametrize("sphere, m", FUSED_CASES)
    def test_has_the_bits_of_the_two_pass_metric(self, sphere, m, small_blocks, monkeypatch):
        # One kernel pass per block, read off its function-major buffer, gives
        # det, residual and |f|^2 with the bits of a gradient pass reduced
        # over the strided (P, N, n+1) tensor followed by a values pass.
        basis = build_basis(sphere, m)
        rng = np.random.default_rng([sphere, m, 5])
        nodes = random_sphere_points(sphere, 3000, rng)
        if sphere == 2:
            nodes = np.concatenate([icosphere(4).centroids, nodes])
        if small_blocks:
            monkeypatch.setattr(harmonics, "EVAL_BLOCK", 7 * basis.dimension)
        assert len(point_blocks(basis, len(nodes))) > (100 if small_blocks else 0)
        fused = embedding._node_metric(basis, nodes)
        assert fused.tobytes() == two_pass_metric(basis, nodes).tobytes()


class TestCoveringDegree:
    @pytest.mark.parametrize("m", range(1, 11))
    def test_sphere_parity_law(self, m):
        basis = build_basis(2, m)
        d = covering_degree(basis, np.random.default_rng(m))
        assert d == (2 if m % 2 == 0 else 1)

    @pytest.mark.parametrize("m", range(1, 51))
    def test_circle_wraps_degree_times(self, m):
        basis = build_basis(1, m)
        for seed in range(5):
            assert covering_degree(basis, np.random.default_rng([seed, m])) == m

    def test_sphere_collision_raises(self, monkeypatch):
        # A tolerance above the image diameter 2R makes every probe pair collide.
        monkeypatch.setattr(embedding, "COLLISION_FACTOR", 3.0)
        with pytest.raises(UnexpectedFiberError, match="non-identified"):
            covering_degree(build_basis(2, 3), np.random.default_rng(0))

    def test_circle_probes_must_agree(self, monkeypatch):
        # One probe loses all its candidates, the trivial collision x0 included.
        solve = embedding.find_common_zeros_s1
        calls = []

        def drop_first(basis, sample):
            result = solve(basis, sample)
            calls.append(None)
            if len(calls) == 1:
                return dataclasses.replace(result, zeros=result.zeros[:0])
            return result

        monkeypatch.setattr(embedding, "find_common_zeros_s1", drop_first)
        with pytest.raises(UnexpectedFiberError, match="inconsistent"):
            covering_degree(build_basis(1, 4), np.random.default_rng(0))
        assert len(calls) == 6


class TestImageVolume:
    def test_degree1_image_volume_is_three(self):
        # Image is a round sphere of radius sqrt(3/4pi): area 4*pi*R^2 = 3.
        report = image_volume(build_basis(2, 1), quadrature_depth=4)
        assert report.covering_degree == 1
        assert abs(report.numeric_integral - 3.0) <= 1e-4
        assert report.predicted_image_volume == pytest.approx(3.0, rel=1e-12)
        assert not report.antipodal_identified

    def test_degree2_doubled_integral_is_fifteen(self):
        report = image_volume(build_basis(2, 2), quadrature_depth=4)
        assert report.covering_degree == 2
        assert abs(report.numeric_integral - 15.0) <= 5e-3 * 15.0
        assert report.numeric_image_volume == pytest.approx(7.5, rel=5e-3)
        assert report.antipodal_identified

    def test_multiplicity_bookkeeping(self):
        for m in (1, 2, 3):
            report = image_volume(build_basis(2, m), quadrature_depth=4)
            assert report.numeric_image_volume * report.covering_degree == pytest.approx(
                report.numeric_integral, rel=1e-12
            )
            assert report.numeric_image_volume == pytest.approx(
                report.predicted_image_volume, rel=5e-3
            )

    def test_radius_field_matches_identity(self):
        for m in (1, 2, 5):
            report = image_volume(build_basis(2, m), quadrature_depth=3)
            expected = build_basis(2, m).unsold_constant
            assert report.radius**2 == pytest.approx(expected, abs=1e-10)

    def test_circle_image(self):
        # The joint map traverses a circle of radius 1/sqrt(pi) m times.
        for m in (1, 2, 3):
            report = image_volume(build_basis(1, m))
            assert report.covering_degree == m
            assert report.numeric_integral == pytest.approx(2.0 * m * math.sqrt(math.pi), rel=1e-10)
            assert report.numeric_image_volume == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-10)
            assert report.antipodal_identified == (m % 2 == 0)

    @pytest.mark.parametrize("depth", [0, 10, 12, -1, 2.5, 2.0, True])
    def test_depth_outside_the_range_is_rejected_before_any_mesh(self, depth):
        # Depth 12 alone would build a 335M-face mesh.
        misses = icosphere.cache_info().misses
        with pytest.raises(SphereInputError, match="quadrature depth"):
            image_volume(build_basis(2, 2), quadrature_depth=depth)
        assert icosphere.cache_info().misses == misses

    def test_gram_residual_small(self):
        report = image_volume(build_basis(2, 4), quadrature_depth=3)
        assert report.max_gram_residual <= 1e-6 * report.dilation

    @pytest.mark.parametrize("sphere, m", [(2, 3), (1, 5)])
    def test_block_size_does_not_change_bits(self, sphere, m, monkeypatch):
        # The quadrature evaluates EVAL_BLOCK // N nodes at a time; the
        # report keeps the bits of the default block size.
        basis = build_basis(sphere, m)
        whole = image_volume(basis, quadrature_depth=3)
        blocks, rows = [], []
        kernel_blocks = embedding.kernel_blocks

        def recorded(b, p, want_gradient):
            for block, parts in kernel_blocks(b, p, want_gradient):
                blocks.append(parts.shape[2])
                rows.append(parts.shape[0])
                yield block, parts

        monkeypatch.setattr(embedding, "kernel_blocks", recorded)
        monkeypatch.setattr(harmonics, "EVAL_BLOCK", 7 * basis.dimension)
        split = image_volume(basis, quadrature_depth=3)
        assert repr(split) == repr(whole)
        assert max(blocks) == 7 and sum(blocks) > 100
        # |f|^2 is read off each block's value row: there is no values pass.
        assert rows == [sphere + 2] * len(blocks)

    @pytest.mark.parametrize("sphere, m, depth", [(2, 3, 3), (2, 24, 4), (2, 50, 3), (1, 8, 3)])
    def test_one_kernel_call_per_quadrature_block(self, sphere, m, depth, monkeypatch):
        # Only the quadrature runs here: the covering degree is fixed and the
        # package's (P, N) and (P, N, n+1) evaluations raise.
        basis = build_basis(sphere, m)
        degree = covering_degree(basis, np.random.default_rng(0))
        kernels = []
        kernel = harmonics._eval_s1 if sphere == 1 else harmonics._eval_s2

        def counted(m, pts, want_gradient, *q):
            kernels.append((len(pts), want_gradient))
            return kernel(m, pts, want_gradient, *q)

        def no_tensor(*args, **kwargs):
            raise AssertionError("the quadrature built a (P, N) or (P, N, n+1) tensor")

        monkeypatch.setattr(embedding, "covering_degree", lambda b, rng: degree)
        monkeypatch.setattr(harmonics, "_evaluate", no_tensor)
        monkeypatch.setattr(harmonics, "_eval_s1" if sphere == 1 else "_eval_s2", counted)
        monkeypatch.setattr(harmonics, "EVAL_BLOCK", 50 * basis.dimension)
        image_volume(basis, quadrature_depth=depth)
        n_nodes = 10 * 4**depth if sphere == 2 else max(512, 64 * m)
        blocks = point_blocks(basis, n_nodes)
        assert len(blocks) > 1
        assert kernels == [(len(range(n_nodes)[b]), True) for b in blocks]


def _full_mesh_quadrature(basis, depth):
    """(numeric_integral, radius, max_gram_residual) of the S2 quadrature over every face of
    the whole depth-d icosphere, with the exact face areas; kept verbatim as the half mesh's
    reference, but for the per-node metric, which is the module's."""
    vertices, faces = whole_icosphere(depth)
    v0, v1, v2 = vertices[faces]
    nodes = v0 + v1 + v2
    nodes /= np.linalg.norm(nodes, axis=1, keepdims=True)
    numer = np.abs(np.einsum("fi,fi->f", v0, np.cross(v1, v2)))
    denom = (
        1.0
        + np.einsum("fi,fi->f", v0, v1)
        + np.einsum("fi,fi->f", v1, v2)
        + np.einsum("fi,fi->f", v2, v0)
    )
    weights = 2.0 * np.arctan2(numer, denom)
    det, deviation, sq_norm = embedding._node_metric(basis, nodes)
    gram_residual = float(np.max(deviation))
    numeric_integral = float(np.sum(weights * np.sqrt(np.clip(det, 0.0, None))))
    radius = float(math.sqrt(np.mean(sq_norm)))
    return numeric_integral, radius, gram_residual


class TestHalfMeshQuadrature:
    @pytest.mark.parametrize("depth", range(1, 6))
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 12, 24, 50])
    def test_half_mesh_matches_the_full_mesh(self, m, depth):
        basis = build_basis(2, m)
        report = image_volume(basis, quadrature_depth=depth)
        integral, radius, residual = _full_mesh_quadrature(basis, depth)
        assert abs(report.numeric_integral - integral) <= 1e-14 * integral
        assert abs(report.radius - radius) <= 1e-14 * radius
        assert abs(report.max_gram_residual - residual) <= 1e-14 * report.dilation

    def test_quadrature_visits_the_first_half_of_the_faces(self, monkeypatch):
        nodes = []
        metric = embedding._node_metric
        monkeypatch.setattr(embedding, "_node_metric", lambda b, p: nodes.append(p) or metric(b, p))
        image_volume(build_basis(2, 3), quadrature_depth=2)
        vertices, faces = whole_icosphere(2)
        v0, v1, v2 = vertices[faces[:, : faces.shape[1] // 2]]
        centroids = (v0 + v1 + v2) / np.linalg.norm(v0 + v1 + v2, axis=1, keepdims=True)
        assert np.array_equal(np.concatenate(nodes), centroids)


@pytest.mark.parametrize(
    "call",
    [
        lambda: build_basis(True, 3),
        lambda: build_basis(np.True_, 3),
        lambda: build_basis(2, True),
        lambda: image_volume(build_basis(2, 2), quadrature_depth=True),
        lambda: image_volume(build_basis(2, 2), seed=True),
    ],
    ids=["sphere_dim", "numpy_sphere_dim", "degree", "quadrature_depth", "seed"],
)
def test_bools_are_rejected(call):
    # True == 1, so a bool would otherwise pass as S1, degree 1, depth 1 or seed 1.
    with pytest.raises(SphereInputError):
        call()


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_seed_must_be_a_count(seed):
    # numpy's generator would reject both, deep inside, with its own error.
    with pytest.raises(SphereInputError, match="seed must be an integer >= 0"):
        image_volume(build_basis(2, 2), quadrature_depth=2, seed=seed)
