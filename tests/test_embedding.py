"""Radius, dilation, covering degree, and image volume of the joint eigenbasis map."""

import math

import numpy as np
import pytest

from sphere_zeros import (
    build_basis,
    covering_degree,
    dilation_check,
    image_volume,
    radius_check,
)
from sphere_zeros.harmonics import eval_basis_many, eval_gradient_many, random_sphere_points


class TestRadius:
    def test_degree1_sphere(self):
        basis = build_basis(2, 1)
        assert basis.unsold_constant == pytest.approx(3.0 / (4.0 * math.pi), rel=1e-14)
        deviation = radius_check(basis, 100, np.random.default_rng(0))
        assert deviation <= 1e-8 * basis.unsold_constant

    @pytest.mark.parametrize("m", [1, 2, 5, 9])
    def test_circle_any_degree(self, m):
        basis = build_basis(1, m)
        assert basis.unsold_constant == pytest.approx(1.0 / math.pi, rel=1e-14)
        assert radius_check(basis, 50, np.random.default_rng(m)) <= 1e-10

    def test_degree4_sphere(self):
        basis = build_basis(2, 4)
        assert basis.unsold_constant == pytest.approx(9.0 / (4.0 * math.pi), rel=1e-14)
        deviation = radius_check(basis, 100, np.random.default_rng(1))
        assert deviation <= 1e-8 * basis.unsold_constant


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
        with pytest.raises(Exception):
            dilation_check(build_basis(2, 2), np.array([0.0, 0.0, 2.0]))


class TestCoveringDegree:
    @pytest.mark.parametrize("m", range(1, 11))
    def test_sphere_parity_law(self, m):
        basis = build_basis(2, m)
        d = covering_degree(basis, 64, np.random.default_rng(m))
        assert d == (2 if m % 2 == 0 else 1)

    def test_circle_wraps_degree_times(self):
        for m in (1, 2, 3, 5, 8, 13, 50):
            basis = build_basis(1, m)
            assert covering_degree(basis, 6, np.random.default_rng(m)) == m


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

    def test_gram_residual_small(self):
        report = image_volume(build_basis(2, 4), quadrature_depth=3)
        assert report.max_gram_residual <= 1e-6 * report.dilation
