"""Randomized property suite: bucketed whole-frame rasterization vs the pin.

The occupancy-bucketed :func:`repro.pipeline.rasterizer.rasterize` must be
bit-identical to the frozen scalar reference — images, ``valid_bits``, and
every :class:`RasterStats` counter — across tile sizes, subtile sizes,
skewed occupancy distributions (one mega-tile among near-empty ones),
all-empty frames, single-pixel tiles, and forced mid-stack termination.
"""

import numpy as np
import pytest

from repro.pipeline import reference as ref
from repro.pipeline.projection import ProjectedGaussians
from repro.pipeline.rasterizer import rasterize
from repro.pipeline.sorting import sort_tiles
from repro.pipeline.tiling import TileGrid, assign_to_tiles


def _assert_raster_equal(got, want):
    assert np.array_equal(got.image, want.image)
    assert got.valid_bits.keys() == want.valid_bits.keys()
    for tile, bits in got.valid_bits.items():
        assert np.array_equal(bits, want.valid_bits[tile])
    assert got.stats == want.stats


def _projection(rng, means2d, radii, opacities, depths=None, colors=None):
    """ProjectedGaussians from explicit placements (random shapes otherwise)."""
    n = len(means2d)
    means2d = np.asarray(means2d, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    sigma = (radii / 3.0) ** 2 * rng.uniform(0.5, 1.5, size=n)
    ids = np.sort(rng.choice(10 * n + 10, size=n, replace=False)).astype(np.int64)
    return ProjectedGaussians(
        ids=ids,
        means2d=means2d,
        cov2d=np.stack([np.diag([s, s]) for s in sigma]),
        conic=np.stack(
            [1.0 / sigma, rng.uniform(-0.05, 0.05, n) / sigma, 1.0 / sigma], axis=1
        ),
        depths=rng.uniform(0.5, 20.0, size=n) if depths is None else np.asarray(depths, dtype=np.float64),
        radii=radii,
        colors=rng.uniform(0.0, 1.0, size=(n, 3)) if colors is None else np.asarray(colors, dtype=np.float64),
        opacities=np.asarray(opacities, dtype=np.float64),
    )


def _random_frame(rng, n, width, height):
    return _projection(
        rng,
        means2d=rng.uniform((-8.0, -8.0), (width + 8.0, height + 8.0), size=(n, 2)),
        radii=rng.uniform(0.5, 12.0, size=n),
        # Many opacities below MIN_ALPHA: exercises the validity masking.
        opacities=rng.uniform(0.001, 1.0, size=n),
    )


def _compare(proj, grid, **kwargs):
    sorted_tiles = sort_tiles(assign_to_tiles(proj, grid))
    got = rasterize(sorted_tiles, proj, grid, **kwargs)
    want = ref.rasterize(sorted_tiles, proj, grid, **kwargs)
    _assert_raster_equal(got, want)
    return got


class TestBucketedRandomized:
    @pytest.mark.parametrize("tile_size", [16, 64])
    @pytest.mark.parametrize("subtile", [8, 4, None])
    def test_random_frames_bitwise_identical(self, tile_size, subtile):
        rng = np.random.default_rng(1000 * tile_size + (subtile or 0))
        for trial in range(3):
            n = int(rng.integers(20, 200))
            proj = _random_frame(rng, n, width=120, height=72)
            grid = TileGrid(width=120, height=72, tile_size=tile_size)
            for termination in (1e-4, 0.5):
                _compare(proj, grid, subtile_size=subtile, termination=termination)

    def test_skewed_occupancy_mega_tile(self):
        # One tile loaded with a deep stack, the rest nearly empty: the
        # mega-tile lands in its own occupancy bucket, the near-empty tiles
        # in shallow ones — every combination must match the pin.
        rng = np.random.default_rng(42)
        heavy_n, light_n = 160, 24
        heavy = rng.uniform((17.0, 17.0), (30.0, 30.0), size=(heavy_n, 2))
        light = rng.uniform((0.0, 0.0), (128.0, 80.0), size=(light_n, 2))
        proj = _projection(
            rng,
            means2d=np.concatenate([heavy, light]),
            radii=np.concatenate(
                [rng.uniform(0.5, 5.0, heavy_n), rng.uniform(0.5, 2.0, light_n)]
            ),
            opacities=rng.uniform(0.01, 1.0, heavy_n + light_n),
        )
        grid = TileGrid(width=128, height=80, tile_size=16)
        got = _compare(proj, grid)
        assert got.stats.blend_ops > 0

    def test_all_empty_frame(self):
        # Every splat falls outside the image: the stream has no nonempty
        # tiles and both paths must return the bare background.
        rng = np.random.default_rng(7)
        proj = _projection(
            rng,
            means2d=np.full((5, 2), -500.0),
            radii=np.full(5, 1.5),
            opacities=np.full(5, 0.9),
        )
        grid = TileGrid(width=64, height=48, tile_size=16)
        got = _compare(proj, grid, background=(0.2, 0.4, 0.6))
        assert np.array_equal(got.image[..., 0], np.full((48, 64), 0.2))
        assert got.stats.blend_ops == 0
        assert not got.valid_bits

    def test_single_pixel_tiles(self):
        # tile_size=1 makes every tile one pixel — maximal tile count,
        # minimal occupancy, and edge tiles everywhere.
        rng = np.random.default_rng(11)
        proj = _random_frame(rng, 40, width=24, height=16)
        grid = TileGrid(width=24, height=16, tile_size=1)
        _compare(proj, grid)

    @pytest.mark.parametrize("tile_size", [16, 64])
    def test_forced_mid_stack_termination(self, tile_size):
        # Deep stacks of near-opaque splats with an aggressive termination
        # threshold: tiles must stop partway down the stack, and the
        # bucketed stop selection must reproduce the scalar loop's exact
        # early-termination point and stats.  The frame is 3x3 tiles with
        # the stack centred on the middle one, scaled with the tile size.
        rng = np.random.default_rng(23)
        n = 48
        scale = tile_size / 16.0
        proj = _projection(
            rng,
            means2d=np.tile([[24.0, 24.0]], (n, 1)) * scale
            + rng.uniform(-3, 3, size=(n, 2)) * scale,
            radii=np.full(n, 20.0 * scale),
            opacities=np.full(n, 0.99),
            depths=np.arange(1, n + 1, dtype=np.float64),
        )
        grid = TileGrid(width=3 * tile_size, height=3 * tile_size, tile_size=tile_size)
        got = _compare(proj, grid, termination=0.5)
        assert got.stats.early_terminated_tiles > 0
        # Termination must have cut the work short of the full stack.
        assert got.stats.gaussians_processed < n * grid.num_tiles
