"""Dense-kernel layer: array coercion, matrix powers, subset enumeration,
and the closed-form block exponential."""

import math

import numpy as np
import pytest

from zonoinv.errors import DimensionError
from zonoinv.numerics import MAX_CHAIN_ENTRIES, as_matrix, as_vector, block_expm, index_subsets, power_chain

from oracles import taylor_expm


class TestCoercion:
    def test_as_matrix_shapes_and_dtype(self):
        m = as_matrix([[1, 2], [3, 4]], rows=2, cols=2)
        assert m.dtype == np.float64
        assert m.shape == (2, 2)

    def test_as_matrix_rejects_wrong_shape(self):
        with pytest.raises(DimensionError):
            as_matrix([[1.0, 2.0]], rows=2, cols=2)

    def test_as_matrix_rejects_non_finite(self):
        with pytest.raises(DimensionError):
            as_matrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_as_vector_roundtrip(self):
        v = as_vector([1, 2, 3], size=3)
        assert v.shape == (3,)
        with pytest.raises(DimensionError):
            as_vector([1, 2, 3], size=2)

    def test_as_vector_rejects_matrix_input(self):
        with pytest.raises(DimensionError):
            as_vector([[1.0, 2.0]])

    def test_non_numeric_input_raises_dimension_error_naming_it(self):
        # Text, ragged rows and integers beyond float range are not arrays of floats.
        with pytest.raises(DimensionError, match="^gamma must be a numeric array"):
            as_vector(["x"], name="gamma")
        with pytest.raises(DimensionError, match="^A must be a numeric array"):
            as_matrix([[1.0], [1.0, 2.0]], name="A")
        with pytest.raises(DimensionError):
            as_vector([10**400])


class TestPowerChain:
    def test_values(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        chain = power_chain(a, 3)
        assert chain.shape == (4, 2, 2)
        assert np.array_equal(chain[0], np.eye(2))
        assert np.array_equal(chain[1], a)
        assert np.array_equal(chain[2], np.zeros((2, 2)))  # nilpotent

    def test_matches_repeated_multiplication(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 3)) * 0.4
        chain = power_chain(a, 6)
        expected = np.eye(3)
        for t in range(7):
            assert np.allclose(chain[t], expected, atol=1e-12)
            expected = a @ expected

    def test_rejects_a_chain_too_long_to_build(self):
        # The check runs before allocation: numpy itself raises a bare
        # ValueError for a shape this large.
        with pytest.raises(DimensionError, match="horizon"):
            power_chain(np.eye(2), 10**30)
        with pytest.raises(DimensionError):  # (T + 1) d^2 just above the limit
            power_chain(np.eye(2), MAX_CHAIN_ENTRIES // 4)


class TestSubsets:
    def test_frozen_example(self):
        assert index_subsets(3, 2).tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_counts_match_binomial(self):
        for p, k in [(4, 2), (6, 3), (8, 5), (14, 10), (16, 15)]:
            subsets = index_subsets(p, k)
            assert subsets.shape == (math.comb(p, k), k)

    def test_lexicographic_and_strictly_increasing_rows(self):
        subsets = index_subsets(6, 3)
        rows = [tuple(r) for r in subsets.tolist()]
        assert rows == sorted(rows)
        assert all(a < b < c for a, b, c in rows)

    def test_table_grid_counts(self):
        grid = {(3, 3): 1, (3, 6): 20, (3, 8): 56, (6, 10): 210,
                (8, 13): 1287, (10, 14): 1001, (12, 15): 455, (15, 16): 16}
        for (d, p), count in grid.items():
            assert index_subsets(p, d).shape == (count, d)


class TestBlockExpm:
    def test_scalar_block(self):
        a = block_expm([np.array([[-1.0]])], np.eye(1), 0.2)
        assert a[0, 0] == pytest.approx(math.exp(-0.2), rel=1e-14)

    def test_rotation_block_closed_form(self):
        blocks = [np.array([[-0.5, 2.0], [-2.0, -0.5]])]
        a = block_expm(blocks, np.eye(2), 0.3)
        scale = math.exp(-0.15)
        expected = scale * np.array(
            [[math.cos(0.6), math.sin(0.6)], [-math.sin(0.6), math.cos(0.6)]]
        )
        assert np.allclose(a, expected, atol=1e-14)

    def test_matches_taylor_series(self):
        rng = np.random.default_rng(11)
        blocks = [
            np.array([[-1.2]]),
            np.array([[-0.4, 1.5], [-1.5, -0.4]]),
            np.array([[-2.0]]),
        ]
        gauss = rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(gauss)
        a = block_expm(blocks, q, 0.2)
        full = np.zeros((4, 4))
        full[0, 0] = blocks[0][0, 0]
        full[1:3, 1:3] = blocks[1]
        full[3, 3] = blocks[2][0, 0]
        continuous = q @ full @ np.linalg.inv(q)
        assert np.allclose(a, taylor_expm(0.2 * continuous), atol=1e-12)

    def test_rejects_size_mismatch(self):
        with pytest.raises(DimensionError):
            block_expm([np.array([[-1.0]])], np.eye(2), 0.2)

    def test_rejects_malformed_block(self):
        with pytest.raises(DimensionError):
            block_expm([np.array([[-1.0, 1.0], [5.0, -1.0]])], np.eye(2), 0.2)
