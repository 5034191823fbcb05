"""``row_distances`` is bit for bit ``np.linalg.norm(..., axis=1)``."""

import numpy as np
import pytest

from repro.index.geometry import row_distances


@pytest.mark.parametrize("seed", range(6))
def test_equals_norm_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        dim = int(rng.choice([1, 2, 3, 8, 17, 32, 50, 128]))
        n = int(rng.integers(1, 600))
        matrix = rng.normal(size=(n, dim)) * rng.uniform(0.01, 100.0)
        point = rng.normal(size=dim)
        ids = rng.choice(n, size=int(rng.integers(0, n + 1)))
        np.testing.assert_array_equal(
            row_distances(matrix, point, ids),
            np.linalg.norm(matrix[ids] - point, axis=1),
            strict=True,
        )
        np.testing.assert_array_equal(
            row_distances(matrix, point),
            np.linalg.norm(matrix - point, axis=1),
            strict=True,
        )


def test_a_row_does_not_depend_on_the_rows_beside_it():
    # The examination loop computes one block's distances at once where
    # it used to compute each chunk's; each row must come out the same.
    rng = np.random.default_rng(7)
    matrix = rng.normal(size=(3000, 50))
    point = rng.normal(size=50)
    everything = row_distances(matrix, point)
    for _ in range(300):
        ids = rng.choice(3000, size=int(rng.integers(1, 700)), replace=False)
        np.testing.assert_array_equal(row_distances(matrix, point, ids), everything[ids])


def test_narrow_rows_subtract_in_the_wider_type():
    rng = np.random.default_rng(8)
    matrix = rng.normal(size=(50, 6)).astype(np.float32)
    point = rng.normal(size=6)
    ids = np.arange(0, 50, 3)
    np.testing.assert_array_equal(
        row_distances(matrix, point, ids),
        np.linalg.norm(matrix[ids] - point, axis=1),
        strict=True,
    )


def test_leaves_its_inputs_alone():
    matrix = np.arange(12.0).reshape(4, 3)
    point = np.ones(3)
    before = matrix.copy()
    row_distances(matrix, point)
    row_distances(matrix, point, np.array([2, 0]))
    np.testing.assert_array_equal(matrix, before)
    np.testing.assert_array_equal(point, np.ones(3))
