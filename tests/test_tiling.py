"""Unit tests for tile binning and Gaussian duplication."""

import numpy as np
import pytest

from repro.pipeline.projection import ProjectedGaussians, project_gaussians
from repro.pipeline.tiling import TileGrid, assign_to_tiles, tile_ranges


def _projected(means2d, radii, depths=None):
    n = np.asarray(means2d).shape[0]
    if depths is None:
        depths = np.arange(n, dtype=np.float64) + 1.0
    return ProjectedGaussians(
        ids=np.arange(n, dtype=np.int64),
        means2d=np.asarray(means2d, dtype=np.float64),
        conic=np.tile(np.array([1.0, 0.0, 1.0]), (n, 1)),
        depths=np.asarray(depths, dtype=np.float64),
        radii=np.asarray(radii, dtype=np.float64),
        colors=np.full((n, 3), 0.5),
        opacities=np.full(n, 0.9),
    )


class TestTileGrid:
    def test_dimensions(self):
        grid = TileGrid(width=100, height=60, tile_size=16)
        assert grid.tiles_x == 7
        assert grid.tiles_y == 4
        assert grid.num_tiles == 28

    def test_index_roundtrip(self):
        grid = TileGrid(width=128, height=64, tile_size=16)
        for t in range(grid.num_tiles):
            tx, ty = grid.tile_coords(t)
            assert grid.tile_index(tx, ty) == t

    def test_index_bounds(self):
        grid = TileGrid(width=32, height=32, tile_size=16)
        with pytest.raises(IndexError):
            grid.tile_index(2, 0)
        with pytest.raises(IndexError):
            grid.tile_coords(4)

    def test_pixel_bounds_clipped_at_edge(self):
        grid = TileGrid(width=100, height=60, tile_size=16)
        x0, y0, x1, y1 = grid.tile_pixel_bounds(grid.num_tiles - 1)
        assert x1 == 100 and y1 == 60

    def test_validation(self):
        with pytest.raises(ValueError):
            TileGrid(width=0, height=10, tile_size=16)
        with pytest.raises(ValueError):
            TileGrid(width=10, height=10, tile_size=0)

    def test_for_camera(self, camera):
        grid = TileGrid.for_camera(camera, tile_size=16)
        assert grid.width == camera.width


class TestTileRanges:
    def test_center_splat(self):
        grid = TileGrid(width=64, height=64, tile_size=16)
        proj = _projected([[32.0, 32.0]], [1.0])
        tx0, tx1, ty0, ty1 = tile_ranges(proj, grid)
        assert (tx0[0], tx1[0], ty0[0], ty1[0]) == (1, 2, 1, 2)

    def test_offscreen_yields_empty(self):
        grid = TileGrid(width=64, height=64, tile_size=16)
        proj = _projected([[-100.0, -100.0]], [5.0])
        tx0, tx1, _, _ = tile_ranges(proj, grid)
        assert tx1[0] < tx0[0]


class TestAssignment:
    def test_small_splat_single_tile(self):
        grid = TileGrid(width=64, height=64, tile_size=16)
        proj = _projected([[8.0, 8.0]], [2.0])
        assignment = assign_to_tiles(proj, grid)
        assert assignment.num_pairs == 1
        assert assignment.rows_for(0).shape[0] == 1

    def test_large_splat_covers_many_tiles(self):
        grid = TileGrid(width=64, height=64, tile_size=16)
        proj = _projected([[32.0, 32.0]], [100.0])
        assignment = assign_to_tiles(proj, grid)
        assert assignment.num_pairs == grid.num_tiles

    def test_corner_grazing_circle_excluded(self):
        # The splat's bbox touches tile (1,1) but the circle misses the
        # corner: the exact circle test must exclude it (ITU consistency).
        grid = TileGrid(width=32, height=32, tile_size=16)
        proj = _projected([[12.0, 12.0]], [5.0])
        assignment = assign_to_tiles(proj, grid)
        # corner of tile(1,1) is (16,16): distance from (12,12) = 5.66 > 5
        tiles_hit = [t for t in range(4) if assignment.rows_for(t).shape[0]]
        assert 3 not in tiles_hit
        assert assignment.num_pairs == 3

    def test_occupancy_matches_rows(self, small_scene, camera):
        proj = project_gaussians(small_scene, camera)
        grid = TileGrid.for_camera(camera, 16)
        assignment = assign_to_tiles(proj, grid)
        occ = assignment.occupancy()
        assert occ.sum() == assignment.num_pairs
        assert occ.shape == (grid.num_tiles,)

    def test_tile_ids_and_depths_aligned(self, small_scene, camera):
        proj = project_gaussians(small_scene, camera)
        grid = TileGrid.for_camera(camera, 16)
        assignment = assign_to_tiles(proj, grid)
        for t in assignment.nonempty_tiles()[:5]:
            rows = assignment.rows_for(t)
            assert np.array_equal(assignment.tile_ids(t), proj.ids[rows])
            assert np.array_equal(assignment.tile_depths(t), proj.depths[rows])

    def test_empty_projection(self):
        grid = TileGrid(width=64, height=64, tile_size=16)
        proj = _projected(np.zeros((0, 2)), np.zeros(0))
        assignment = assign_to_tiles(proj, grid)
        assert assignment.num_pairs == 0

    def test_every_pair_overlaps_its_tile(self, small_scene, camera):
        proj = project_gaussians(small_scene, camera)
        grid = TileGrid.for_camera(camera, 16)
        assignment = assign_to_tiles(proj, grid)
        for t in assignment.nonempty_tiles():
            x0, y0, x1, y1 = grid.tile_pixel_bounds(t)
            rows = assignment.rows_for(t)
            cx = proj.means2d[rows, 0]
            cy = proj.means2d[rows, 1]
            r = proj.radii[rows]
            qx = np.clip(cx, x0, x1)
            qy = np.clip(cy, y0, y1)
            assert ((qx - cx) ** 2 + (qy - cy) ** 2 <= r * r + 1e-9).all()
