"""Zonotope and box primitives: construction, exact volume, images, hulls."""

import numpy as np
import pytest

from zonoinv.errors import DimensionError, RankDeficientError
from zonoinv.zonotope import (
    Box,
    Zonotope,
    interval_hull,
    volume_exact,
)

from oracles import brute_force_zonotope_volume_2d


class TestBox:
    def test_basic(self):
        box = Box(np.array([-1.0, 0.0]), np.array([1.0, 4.0]))
        assert box.dim == 2
        assert np.allclose(box.midpoint, [0.0, 2.0])
        assert box.volume() == pytest.approx(8.0)

    def test_rejects_crossed_bounds(self):
        with pytest.raises(DimensionError):
            Box(np.array([1.0]), np.array([-1.0]))


class TestZonotope:
    def test_construction(self):
        z = Zonotope(np.zeros(2), np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        assert z.dim == 2
        assert z.n_generators == 3

    def test_rejects_row_mismatch(self):
        with pytest.raises(DimensionError):
            Zonotope(np.zeros(3), np.eye(2))


class TestVolumeExact:
    def test_hand_example(self):
        z = Zonotope(np.array([1.0, 0.0]), np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        assert volume_exact(z) == pytest.approx(12.0, rel=1e-12)

    def test_unit_boxes(self):
        for d in (1, 2, 3, 4, 6):
            z = Zonotope(np.zeros(d), np.eye(d))
            assert volume_exact(z) == pytest.approx(2.0**d, rel=1e-12)

    def test_center_invariance(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((3, 5))
        v0 = volume_exact(Zonotope(np.zeros(3), g))
        v1 = volume_exact(Zonotope(rng.standard_normal(3) * 10, g))
        assert v0 == pytest.approx(v1, rel=1e-14)

    def test_shear_invariance(self):
        # A unit-determinant linear image preserves volume.
        rng = np.random.default_rng(1)
        g = rng.standard_normal((2, 4))
        shear = np.array([[1.0, 0.7], [0.0, 1.0]])
        v0 = volume_exact(Zonotope(np.zeros(2), g))
        v1 = volume_exact(Zonotope(np.zeros(2), shear @ g))
        assert v0 == pytest.approx(v1, rel=1e-12)

    def test_scaling_degree(self):
        rng = np.random.default_rng(2)
        for d, p in [(2, 3), (3, 5)]:
            g = rng.standard_normal((d, p))
            v0 = volume_exact(Zonotope(np.zeros(d), g))
            v2 = volume_exact(Zonotope(np.zeros(d), 2.0 * g))
            assert v2 == pytest.approx((2.0**d) * v0, rel=1e-12)

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((3, 6))
        v0 = volume_exact(Zonotope(np.zeros(3), g))
        v1 = volume_exact(Zonotope(np.zeros(3), g[:, rng.permutation(6)]))
        assert v0 == pytest.approx(v1, rel=1e-12)

    def test_against_planar_hull_area(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = int(rng.integers(2, 7))
            g = rng.standard_normal((2, p))
            z = Zonotope(np.zeros(2), g)
            assert volume_exact(z) == pytest.approx(
                brute_force_zonotope_volume_2d(np.zeros(2), g), rel=1e-9
            )

    def test_rank_deficient_is_zero_volume(self):
        g = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
        assert volume_exact(Zonotope(np.zeros(2), g)) == pytest.approx(0.0, abs=1e-12)

    def test_too_few_generators_raises(self):
        with pytest.raises(RankDeficientError):
            volume_exact(Zonotope(np.zeros(3), np.ones((3, 2))))


class TestAffineImage:
    def test_volume_scales_by_determinant(self):
        # The image M Z has generators M G, and its volume is |det M| vol(Z).
        rng = np.random.default_rng(9)
        g = rng.standard_normal((3, 5))
        m = rng.standard_normal((3, 3))
        z = Zonotope(np.zeros(3), g)
        assert volume_exact(Zonotope(np.zeros(3), m @ g)) == pytest.approx(
            abs(np.linalg.det(m)) * volume_exact(z), rel=1e-10
        )


class TestIntervalHull:
    def test_hand_example(self):
        z = Zonotope(np.array([1.0, 0.0]), np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        hull = interval_hull(z)
        assert np.allclose(hull.lower, [-1.0, -2.0])
        assert np.allclose(hull.upper, [3.0, 2.0])

    def test_contains_all_sign_vertices(self):
        rng = np.random.default_rng(10)
        g = rng.standard_normal((3, 5))
        c = rng.standard_normal(3)
        hull = interval_hull(Zonotope(c, g))
        import itertools
        for signs in itertools.product((-1.0, 1.0), repeat=5):
            vertex = c + g @ np.array(signs)
            assert np.all(vertex >= hull.lower - 1e-12) and np.all(vertex <= hull.upper + 1e-12)
