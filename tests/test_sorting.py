"""Unit tests for the reference sorting stage and order metrics."""

import numpy as np
import pytest

from repro.pipeline.projection import project_gaussians
from repro.pipeline.sorting import (
    is_depth_sorted,
    kendall_tau_distance,
    order_quality,
    sort_tiles,
)
from repro.pipeline.tiling import TileGrid, assign_to_tiles


class TestSortTiles:
    def test_all_tiles_sorted(self, small_scene, camera):
        proj = project_gaussians(small_scene, camera)
        assignment = assign_to_tiles(proj, TileGrid.for_camera(camera, 16))
        sorted_tiles = sort_tiles(assignment)
        for t in range(sorted_tiles.num_tiles):
            assert is_depth_sorted(sorted_tiles.depths_for(t))

    def test_rows_ids_depths_consistent(self, small_scene, camera):
        proj = project_gaussians(small_scene, camera)
        assignment = assign_to_tiles(proj, TileGrid.for_camera(camera, 16))
        sorted_tiles = sort_tiles(assignment)
        for t in range(sorted_tiles.num_tiles):
            rows = sorted_tiles.rows_for(t)
            assert np.array_equal(sorted_tiles.ids_for(t), proj.ids[rows])
            assert np.array_equal(sorted_tiles.depths_for(t), proj.depths[rows])

    def test_preserves_pair_count(self, small_scene, camera):
        proj = project_gaussians(small_scene, camera)
        assignment = assign_to_tiles(proj, TileGrid.for_camera(camera, 16))
        assert sort_tiles(assignment).num_pairs == assignment.num_pairs

    def test_deterministic_tie_break(self):
        # Equal depths break on Gaussian ID.
        from repro.pipeline.projection import ProjectedGaussians

        n = 4
        proj = ProjectedGaussians(
            ids=np.array([7, 3, 9, 1]),
            means2d=np.full((n, 2), 8.0),
            conic=np.tile(np.array([1.0, 0.0, 1.0]), (n, 1)),
            depths=np.ones(n),
            radii=np.full(n, 2.0),
            colors=np.full((n, 3), 0.5),
            opacities=np.full(n, 0.9),
        )
        assignment = assign_to_tiles(proj, TileGrid(width=16, height=16, tile_size=16))
        sorted_tiles = sort_tiles(assignment)
        assert list(sorted_tiles.ids_for(0)) == [1, 3, 7, 9]


class TestOrderMetrics:
    def test_is_depth_sorted(self):
        assert is_depth_sorted(np.array([1.0, 2.0, 2.0, 3.0]))
        assert not is_depth_sorted(np.array([1.0, 0.5]))
        assert is_depth_sorted(np.array([1.0]))
        assert is_depth_sorted(np.array([1.0, 0.99]), tolerance=0.1)

    def test_order_quality(self):
        assert order_quality(np.array([1.0, 2.0, 3.0])) == 1.0
        assert order_quality(np.array([3.0, 2.0, 1.0])) == 0.0
        assert order_quality(np.array([1.0, 3.0, 2.0, 4.0])) == pytest.approx(2 / 3)
        assert order_quality(np.array([5.0])) == 1.0

    def test_kendall_identical(self):
        order = np.array([4, 2, 9, 1])
        assert kendall_tau_distance(order, order) == 0.0

    def test_kendall_reversed(self):
        order = np.arange(10)
        assert kendall_tau_distance(order, order[::-1]) == 1.0

    def test_kendall_single_swap(self):
        a = np.array([0, 1, 2, 3])
        b = np.array([1, 0, 2, 3])
        assert kendall_tau_distance(a, b) == pytest.approx(1 / 6)

    def test_kendall_rejects_different_sets(self):
        with pytest.raises(ValueError):
            kendall_tau_distance(np.array([1, 2]), np.array([1, 3]))

    def test_kendall_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            kendall_tau_distance(np.array([1, 2]), np.array([1, 2, 3]))

    def test_kendall_matches_bruteforce(self, rng):
        for _ in range(5):
            n = 12
            a = rng.permutation(n)
            b = rng.permutation(n)
            pos_b = {v: i for i, v in enumerate(b)}
            seq = [pos_b[v] for v in a]
            brute = sum(
                1
                for i in range(n)
                for j in range(i + 1, n)
                if seq[i] > seq[j]
            )
            expected = brute / (n * (n - 1) / 2)
            assert kendall_tau_distance(a, b) == pytest.approx(expected)
