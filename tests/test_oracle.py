"""Tests for the independent checking routines (halfspaces, Monte Carlo
volume, point simulation, finite differences)."""

import numpy as np
import pytest

from oracles import brute_force_zonotope_volume_2d, membership
from zonoinv.errors import DimensionError, DomainError, UnsupportedError
from zonoinv.invariance import AffineSystem
from zonoinv.oracle import (
    facet_normals,
    finite_diff_gradient,
    finite_diff_hessian,
    h_representation,
    mc_volume,
    sign_vertices,
    simulate_invariance,
)
from zonoinv.zonotope import Box, Zonotope, volume_exact


def unit_box(d):
    return Box(-np.ones(d), np.ones(d))


class TestFacetNormals:
    def test_unit_square(self):
        z = Zonotope(np.zeros(2), np.eye(2))
        normals = facet_normals(z)
        # Axis-aligned square: normals e2 (from generator e1) and e1.
        assert normals.shape == (2, 2)
        rows = {tuple(np.round(row, 12)) for row in normals}
        assert rows == {(0.0, 1.0), (1.0, 0.0)}

    def test_three_generator_hexagon_offsets(self):
        # G = [e1, e2, (1, 1)]: normals from single generators are
        # (0, 1), (1, 0) and (1, -1)/sqrt(2); support offsets about the
        # center are 2, 2 and sqrt(2).
        z = Zonotope(np.zeros(2), np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        normals, offsets = h_representation(z)
        assert normals.shape == (3, 2)
        got = {tuple(np.round(n, 10)): round(o, 10) for n, o in zip(normals, offsets)}
        s = 1.0 / np.sqrt(2.0)
        expected = {
            (0.0, 1.0): 2.0,
            (1.0, 0.0): 2.0,
            (round(s, 10), round(-s, 10)): round(np.sqrt(2.0), 10),
        }
        assert set(got) == set(expected)
        for key, val in expected.items():
            assert got[key] == pytest.approx(val, abs=1e-10)

    def test_one_dimensional(self):
        z = Zonotope([0.5], [[2.0]])
        assert np.array_equal(facet_normals(z), [[1.0]])

    def test_dedup_parallel_generators(self):
        # Two parallel generators span the same facet direction once.
        z = Zonotope(np.zeros(2), np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]]))
        normals = facet_normals(z)
        assert normals.shape == (2, 2)

    def test_rejects_high_dimension(self):
        z = Zonotope(np.zeros(5), np.eye(5))
        with pytest.raises(UnsupportedError):
            facet_normals(z)

    def test_rank_deficient_rejected(self):
        z = Zonotope(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]))
        # All (d-1)-subsets give the same normal, so facet_normals still
        # returns one direction; membership then treats the zonotope as a
        # slab. Degeneracy is caught by mc_volume instead (zero hits measure).
        normals = facet_normals(z)
        assert normals.shape == (1, 2)


class TestMembership:
    def test_parallelotope_against_linear_solve(self):
        # For a square invertible G, x in Z iff |G^-1 (x - c)|_inf <= 1.
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
            c = rng.standard_normal(3)
            z = Zonotope(c, g)
            points = c + rng.uniform(-2.0, 2.0, size=(200, 3)) @ g.T
            expected = np.all(np.abs(np.linalg.solve(g, (points - c).T)) <= 1.0 + 1e-9, axis=0)
            assert np.array_equal(membership(z, points), expected)

    def test_center_and_far_point(self):
        z = Zonotope([1.0, 1.0], np.eye(2))
        mask = membership(z, [[1.0, 1.0], [5.0, 5.0]])
        assert mask.tolist() == [True, False]

    def test_dimension_mismatch(self):
        z = Zonotope(np.zeros(2), np.eye(2))
        with pytest.raises(DimensionError):
            membership(z, np.zeros((4, 3)))


class TestMcVolume:
    def test_matches_exact_on_squares(self):
        z = Zonotope(np.zeros(2), np.eye(2))
        estimate, stderr = mc_volume(z, 50_000, seed=3)
        # The hull equals the zonotope: the hit rate is exactly 1.
        assert estimate == pytest.approx(4.0, abs=1e-12)
        assert stderr == 0.0

    def test_matches_exact_within_three_sigma(self):
        rng = np.random.default_rng(17)
        for k in range(10):
            d = 2 + k % 2
            p = d + rng.integers(0, 3)
            g = rng.standard_normal((d, p))
            while np.linalg.matrix_rank(g) < d:
                g = rng.standard_normal((d, p))
            z = Zonotope(rng.standard_normal(d), g)
            exact = volume_exact(z)
            estimate, stderr = mc_volume(z, 100_000, seed=100 + k)
            assert abs(estimate - exact) <= 3.0 * max(stderr, 1e-12)

    def test_agrees_with_brute_force_hull_area(self):
        rng = np.random.default_rng(23)
        g = rng.standard_normal((2, 4))
        c = rng.standard_normal(2)
        area = brute_force_zonotope_volume_2d(c, g)
        estimate, stderr = mc_volume(Zonotope(c, g), 200_000, seed=9)
        assert abs(estimate - area) <= 3.0 * stderr

    def test_deterministic_in_seed(self):
        z = Zonotope(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
        a = mc_volume(z, 10_000, seed=42)
        b = mc_volume(z, 10_000, seed=42)
        c = mc_volume(z, 10_000, seed=43)
        assert a == b
        assert a != c

    def test_batching_invariant(self):
        # More samples than one internal batch: still a pure function of the
        # inputs, and closer to the truth.
        z = Zonotope(np.zeros(2), np.array([[1.0, 1.0], [0.0, 1.0]]))
        estimate, stderr = mc_volume(z, 300_000, seed=1)
        assert abs(estimate - volume_exact(z)) <= 3.0 * stderr

    def test_zero_hits_is_an_error(self):
        # Rank-one generators span a segment of measure zero inside its hull.
        z = Zonotope(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(DomainError):
            mc_volume(z, 1_000, seed=0)

    def test_rejects_nonpositive_samples(self):
        z = Zonotope(np.zeros(2), np.eye(2))
        with pytest.raises(DimensionError):
            mc_volume(z, 0, seed=0)


class TestSignVertices:
    def test_small_counts_and_order(self):
        v = sign_vertices(2)
        assert v.shape == (4, 2)
        assert v.tolist() == [[-1, -1], [-1, 1], [1, -1], [1, 1]]

    def test_too_many_rejected(self):
        with pytest.raises(UnsupportedError):
            sign_vertices(21)


class TestSimulateInvariance:
    def test_contraction_never_violates(self):
        sys_ = AffineSystem(0.5 * np.eye(2), np.zeros(2))
        z = Zonotope(np.zeros(2), 0.9 * np.eye(2))
        worst, t, coord = simulate_invariance(sys_, unit_box(2), 10, z)
        assert worst == 0.0
        assert (t, coord) == (0, 0)

    def test_known_violation_located(self):
        # Center (0.6, 0), generators 0.5 I: vertex (1.1, +-0.5) exits the
        # unit box by 0.1 in coordinate 0 at time 0.
        sys_ = AffineSystem(np.zeros((2, 2)), np.zeros(2))
        z = Zonotope([0.6, 0.0], 0.5 * np.eye(2))
        worst, t, coord = simulate_invariance(sys_, unit_box(2), 0, z)
        assert worst == pytest.approx(0.1, abs=1e-12)
        assert (t, coord) == (0, 0)

    def test_violation_after_one_step(self):
        # Rotation moves the long axis into the tight coordinate at t = 1.
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        sys_ = AffineSystem(rot, np.zeros(2))
        box = Box([-2.0, -1.0], [2.0, 1.0])
        z = Zonotope(np.zeros(2), np.diag([1.5, 0.5]))
        worst, t, coord = simulate_invariance(sys_, box, 3, z)
        assert worst == pytest.approx(0.5, abs=1e-12)
        assert t == 1
        assert coord == 1

    def test_exhaustive_below_vertex_budget(self):
        # p = 3 with the default budget uses all 8 sign vertices, so the
        # reported worst violation is exact for linear maps.
        sys_ = AffineSystem(np.array([[1.1, 0.0], [0.0, 0.9]]), np.zeros(2))
        g = np.array([[0.5, 0.2, 0.0], [0.0, 0.1, 0.4]])
        z = Zonotope(np.zeros(2), g)
        worst, t, coord = simulate_invariance(sys_, unit_box(2), 4, z)
        # Hand value: coordinate 0 radius grows by 1.1 each step;
        # radius_0 = 0.7 -> 0.7 * 1.1^4 = 1.02487 at t = 4.
        assert worst == pytest.approx(0.7 * 1.1**4 - 1.0, rel=1e-12)
        assert (t, coord) == (4, 0)

    def test_many_generator_path_is_deterministic(self):
        rng = np.random.default_rng(31)
        g = rng.standard_normal((3, 15))  # p > 12: sampled path
        z = Zonotope(np.zeros(3), 0.05 * g)
        sys_ = AffineSystem(0.8 * np.eye(3), np.zeros(3))
        a = simulate_invariance(sys_, unit_box(3), 5, z, n_points=512, seed=7)
        b = simulate_invariance(sys_, unit_box(3), 5, z, n_points=512, seed=7)
        assert a == b

    def test_underestimates_certificate(self):
        # Sampled violations can only underestimate the exact reach-set
        # violation, never exceed it.
        from zonoinv.invariance import certificate_violation

        rng = np.random.default_rng(41)
        for _ in range(10):
            d, p = 2, 14
            a = rng.standard_normal((d, d))
            a *= 0.9 / np.max(np.abs(np.linalg.eigvals(a)))
            sys_ = AffineSystem(a, 0.05 * rng.standard_normal(d))
            z = Zonotope(0.2 * rng.standard_normal(d), 0.15 * rng.standard_normal((d, p)))
            exact = certificate_violation(sys_, unit_box(d), 8, z)
            sampled, _, _ = simulate_invariance(sys_, unit_box(d), 8, z, n_points=2048, seed=3)
            assert sampled <= exact + 1e-12


class TestFiniteDifferences:
    def test_gradient_exact_on_quadratic(self):
        # Central differences are exact (to round-off) for quadratics.
        q = np.array([[2.0, 0.5], [0.5, 1.0]])
        fn = lambda x: 0.5 * x @ q @ x + np.array([1.0, -2.0]) @ x
        x = np.array([0.3, -0.7])
        grad = finite_diff_gradient(fn, x, step=1e-6)
        assert np.allclose(grad, q @ x + [1.0, -2.0], atol=1e-8)

    def test_hessian_exact_on_quadratic(self):
        q = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, -0.3], [0.0, -0.3, 4.0]])
        fn = lambda x: 0.5 * x @ q @ x
        hess = finite_diff_hessian(fn, np.array([0.1, 0.2, -0.5]), step=1e-4)
        assert np.allclose(hess, q, atol=1e-6)

    def test_gradient_on_log(self):
        fn = lambda x: float(np.sum(np.log(x)))
        x = np.array([0.5, 2.0, 1.5])
        grad = finite_diff_gradient(fn, x)
        assert np.allclose(grad, 1.0 / x, rtol=1e-7)
