"""Randomized property suite: whole-frame rasterization vs the pin.

The level-major :func:`repro.pipeline.rasterizer.rasterize` must be
bit-identical to the frozen scalar reference — images, ``valid_bits``, and
every :class:`RasterStats` counter — across tile sizes, subtile sizes,
skewed occupancy distributions (one mega-tile among near-empty ones),
all-empty frames, single-pixel tiles, forced mid-stack termination, and
chunk budgets small enough to split every level across chunks.
"""

import numpy as np
import pytest

from repro.pipeline import reference as ref
from repro.pipeline.projection import ProjectedGaussians
from repro.pipeline import rasterizer
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
        # One tile loaded with a deep stack, the rest nearly empty: most
        # levels hold the mega-tile alone, the first few every tile — every
        # combination must match the pin.
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
        # level-major stop selection must reproduce the scalar loop's exact
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


def _stack_frame(rng, tile_size, n=48, trim=0):
    """Deep stack of near-opaque splats over the middle tile of 3x3 tiles.

    ``trim`` shaves pixels off the right and bottom edges, so the frame is
    not a tile multiple.
    """
    scale = tile_size / 16.0
    proj = _projection(
        rng,
        means2d=np.tile([[24.0, 24.0]], (n, 1)) * scale
        + rng.uniform(-3, 3, size=(n, 2)) * scale,
        radii=np.full(n, 20.0 * scale),
        opacities=np.full(n, 0.99),
        depths=np.arange(1, n + 1, dtype=np.float64),
    )
    edge = 3 * tile_size - trim
    return proj, TileGrid(width=edge, height=edge, tile_size=tile_size)


class TestChunkBoundaries:
    """Tiny chunk budgets: levels split across chunks, T carries between them.

    A budget of 1 makes every member (a valid pair with a nonempty bbox)
    its own chunk; 97 bbox pixels packs a few members per chunk, so chunk
    boundaries also fall inside levels and terminations roll back inside a
    chunk shared with other tiles.
    """

    @pytest.fixture
    def chunk_sizes(self, monkeypatch):
        """Members per ``_blend_chunk`` call, recorded as the frame blends."""
        sizes = []
        blend = rasterizer._blend_chunk

        def spy(framebuffer, projected, rows, *args):
            sizes.append(rows.shape[0])
            return blend(framebuffer, projected, rows, *args)

        monkeypatch.setattr(rasterizer, "_blend_chunk", spy)
        return sizes

    @pytest.mark.parametrize("budget", [1, 97])
    @pytest.mark.parametrize("tile_size", [8, 12, 16, 20, 24, 64])
    @pytest.mark.parametrize("subtile", [8, 4, None])
    def test_random_frames_bitwise_identical(
        self, monkeypatch, chunk_sizes, budget, tile_size, subtile
    ):
        monkeypatch.setattr(rasterizer, "_CHUNK_BBOX_PIXELS", budget)
        rng = np.random.default_rng(7000 + 10 * tile_size + budget + (subtile or 0))
        # 100x70 is a multiple of none of the tile sizes: edge tiles on
        # the right and bottom.  Tiles 12 and 20 end partway through an
        # 8 px subtile, and tiles 12 and 24 leave a 4 px edge column,
        # narrower than a subtile.
        proj = _random_frame(rng, 60, width=100, height=70)
        grid = TileGrid(width=100, height=70, tile_size=tile_size)
        for termination in (1e-4, 0.5):
            _compare(
                proj, grid, subtile_size=subtile, termination=termination,
                background=(0.2, 0.4, 0.6),
            )
        assert len(chunk_sizes) > 2
        if budget == 1:
            assert set(chunk_sizes) == {1}

    @pytest.mark.parametrize("one_member", [True, False])
    @pytest.mark.parametrize("tile_size", [8, 16, 64])
    def test_forced_termination(self, monkeypatch, chunk_sizes, one_member, tile_size):
        # One member per chunk: a tile's last crossing ends its chunk, so
        # its stop lands on the first level of a later chunk and the tile's
        # remaining members must be skipped, not blended.  Eight tiles'
        # worth of bbox pixels per chunk: the stop lands inside the chunk
        # and the tile's later pixels are rolled back there.
        budget = 1 if one_member else 8 * tile_size**2
        monkeypatch.setattr(rasterizer, "_CHUNK_BBOX_PIXELS", budget)
        rng = np.random.default_rng(23 + tile_size)
        proj, grid = _stack_frame(rng, tile_size, trim=3)
        full = _compare(proj, grid, termination=0.0)
        blended = sum(chunk_sizes)
        assert (max(chunk_sizes) == 1) == one_member
        chunk_sizes.clear()
        # A background shows each terminated pixel's final transmittance.
        got = _compare(proj, grid, termination=0.5, background=(0.2, 0.4, 0.6))
        assert full.stats.early_terminated_tiles == 0
        assert got.stats.early_terminated_tiles > 0
        assert got.stats.gaussians_processed < full.stats.gaussians_processed
        assert sum(chunk_sizes) < blended
