"""Golden tests: vectorized pipeline hot paths vs the frozen scalar reference.

The level-major rasterizer, the batched tile sort, and the vectorized order
metrics must be *bit-identical* to :mod:`repro.pipeline.reference` — images,
``valid_bits``, and every :class:`RasterStats` counter — across tile sizes,
subtile sizes, and termination settings.
"""

import numpy as np
import pytest

from raster_oracle import rasterize_one_tile
from repro.pipeline import reference as ref
from repro.pipeline.projection import ProjectedGaussians, project_gaussians
from repro.pipeline.rasterizer import MIN_ALPHA, rasterize
from repro.pipeline.sorting import _count_inversions, kendall_tau_distance, sort_tiles
from repro.pipeline.tiling import TileGrid, assign_to_tiles
from repro.hw.workload import WorkloadModel


def _assert_raster_equal(got, want):
    assert np.array_equal(got.image, want.image)
    assert got.valid_bits.keys() == want.valid_bits.keys()
    for tile, bits in got.valid_bits.items():
        assert np.array_equal(bits, want.valid_bits[tile])
    assert got.stats == want.stats


def _random_projection(rng, n, extent=64.0, opacity_range=(0.05, 1.0)):
    """A synthetic ProjectedGaussians table with varied splat shapes."""
    radii = rng.uniform(0.5, 12.0, size=n)
    sigma = (radii / 3.0) ** 2 * rng.uniform(0.5, 1.5, size=n)
    ids = rng.choice(10 * n, size=n, replace=False)
    return ProjectedGaussians(
        ids=np.sort(ids).astype(np.int64),
        means2d=rng.uniform(-8.0, extent + 8.0, size=(n, 2)),
        conic=np.stack([1.0 / sigma, rng.uniform(-0.05, 0.05, n) / sigma, 1.0 / sigma], axis=1),
        depths=rng.uniform(0.5, 20.0, size=n),
        radii=radii,
        colors=rng.uniform(0.0, 1.0, size=(n, 3)),
        opacities=rng.uniform(*opacity_range, size=n),
    )


class TestChunkedRasterizerGolden:
    @pytest.mark.parametrize("tile_size", [16, 64])
    @pytest.mark.parametrize("subtile", [8, 4, None])
    def test_scene_frames_bitwise_identical(self, small_scene, camera, tile_size, subtile):
        proj = project_gaussians(small_scene, camera)
        grid = TileGrid.for_camera(camera, tile_size)
        sorted_tiles = sort_tiles(assign_to_tiles(proj, grid))
        for termination in (1e-4, 0.5, 0.0):
            got = rasterize(
                sorted_tiles, proj, grid, subtile_size=subtile, termination=termination
            )
            want = ref.rasterize(
                sorted_tiles, proj, grid, subtile_size=subtile, termination=termination
            )
            _assert_raster_equal(got, want)

    def test_random_splats_stress(self):
        # Random opacities (many below MIN_ALPHA), conics with off-diagonal
        # terms, off-screen splats, 16 and 64 px tiles, mild and aggressive
        # termination: exercises bbox masking, insignificant pixels, and
        # stops landing mid-stack.
        rng = np.random.default_rng(20260730)
        for trial in range(6):
            n = int(rng.integers(5, 160))
            proj = _random_projection(rng, n, opacity_range=(0.001, 1.0))
            rows = np.arange(n, dtype=np.int64)[np.argsort(proj.depths, kind="stable")]
            for width, height in ((16, 16), (64, 48)):
                for sub in (8, None):
                    for termination in (1e-4, 0.5):
                        rasterize_one_tile(
                            proj, rows, width, height,
                            subtile_size=sub, termination=termination,
                        )


class TestRasterizerEdgeCases:
    def _splat(self, x, y, radius=4.0, opacity=0.9, depth=1.0, gid=0):
        sigma2 = (radius / 3.0) ** 2
        return ProjectedGaussians(
            ids=np.array([gid], dtype=np.int64),
            means2d=np.array([[x, y]], dtype=np.float64),
            conic=np.array([[1.0 / sigma2, 0.0, 1.0 / sigma2]]),
            depths=np.array([depth], dtype=np.float64),
            radii=np.array([radius], dtype=np.float64),
            colors=np.array([[1.0, 0.2, 0.1]], dtype=np.float64),
            opacities=np.array([opacity], dtype=np.float64),
        )

    def _merge(self, *projs):
        return ProjectedGaussians(
            ids=np.concatenate([p.ids for p in projs]),
            means2d=np.concatenate([p.means2d for p in projs]),
            conic=np.concatenate([p.conic for p in projs]),
            depths=np.concatenate([p.depths for p in projs]),
            radii=np.concatenate([p.radii for p in projs]),
            colors=np.concatenate([p.colors for p in projs]),
            opacities=np.concatenate([p.opacities for p in projs]),
        )

    def test_single_pixel_tile(self):
        proj = self._merge(
            self._splat(0.5, 0.5, gid=0),
            self._splat(0.4, 0.6, opacity=0.99, depth=2.0, gid=1),
        )
        valid, stats, _ = rasterize_one_tile(proj, [0, 1], 1, 1)
        assert stats.blend_ops > 0

    def test_single_pixel_tiles_full_grid(self, tiny_scene, camera):
        proj = project_gaussians(tiny_scene, camera)
        grid = TileGrid(width=24, height=18, tile_size=1)
        sorted_tiles = sort_tiles(assign_to_tiles(proj, grid))
        got = rasterize(sorted_tiles, proj, grid)
        want = ref.rasterize(sorted_tiles, proj, grid)
        _assert_raster_equal(got, want)

    def test_subtile_none(self):
        proj = self._merge(*[self._splat(8.0 + i, 8.0, gid=i, depth=1.0 + i) for i in range(5)])
        rasterize_one_tile(proj, np.arange(5), 16, 16, subtile_size=None)

    def test_all_transparent_chunk(self):
        # Opacity far below MIN_ALPHA everywhere: every member is rejected,
        # no pixel changes, yet every splat is still processed and counted.
        splats = [
            self._splat(8.0, 8.0, opacity=MIN_ALPHA / 10.0, depth=1.0 + i, gid=i)
            for i in range(20)
        ]
        proj = self._merge(*splats)
        valid, stats, _ = rasterize_one_tile(proj, np.arange(20), 16, 16)
        assert stats.gaussians_processed == 20
        assert stats.early_terminated_tiles == 0

    def test_termination_lands_mid_chunk(self):
        # A stack of near-opaque splats drives transmittance under the
        # threshold partway down the level stack; the stop must land on the
        # same Gaussian (same processed/blend counts) as the scalar loop, on
        # a 16 px and a 64 px tile.
        for size, radius in ((16, 30.0), (64, 250.0)):
            center = size / 2.0
            splats = [
                self._splat(center, center, radius=radius, opacity=0.99, depth=1.0 + i, gid=i)
                for i in range(40)
            ]
            proj = self._merge(*splats)
            valid, stats, _ = rasterize_one_tile(proj, np.arange(40), size, size)
            assert stats.early_terminated_tiles == 1
            assert stats.gaussians_processed < 40

    def test_transparent_tail_after_termination_threshold(self):
        # Opaque stack followed by sub-MIN_ALPHA members: termination fires
        # at a member whose alpha map is all zero, so the stop is read off a
        # stack level that member leaves unchanged.
        for size, radius in ((16, 30.0), (64, 250.0)):
            center = size / 2.0
            splats = [
                self._splat(center, center, radius=radius, opacity=0.99, depth=1.0 + i, gid=i)
                for i in range(12)
            ] + [
                self._splat(
                    center, center, opacity=MIN_ALPHA / 10.0, depth=100.0 + i, gid=100 + i
                )
                for i in range(12)
            ]
            proj = self._merge(*splats)
            _, stats, _ = rasterize_one_tile(proj, np.arange(24), size, size)
            assert stats.early_terminated_tiles == 1

    def test_empty_rows_and_degenerate_bounds(self):
        # A TileGrid tile always has positive area, so the empty table is
        # the degenerate input left to pin.
        proj = self._splat(4.0, 4.0)
        valid, stats, _ = rasterize_one_tile(proj, np.empty(0, dtype=np.int64), 16, 16)
        assert valid.shape == (0,) and stats.blend_ops == 0


class TestBatchedSortGolden:
    @pytest.mark.parametrize("tile_size", [16, 64])
    def test_scene_assignment_identical(self, small_scene, camera, tile_size):
        proj = project_gaussians(small_scene, camera)
        grid = TileGrid.for_camera(camera, tile_size)
        assignment = assign_to_tiles(proj, grid)
        got = sort_tiles(assignment)
        want = ref.sort_tiles(assignment)
        assert got.num_tiles == want.num_tiles
        for t in range(got.num_tiles):
            assert np.array_equal(got.rows_for(t), want.rows_for(t))
            assert np.array_equal(got.ids_for(t), want.ids_for(t))
            assert np.array_equal(got.depths_for(t), want.depths_for(t))

    def test_duplicate_depths_tie_break_on_id(self):
        rng = np.random.default_rng(11)
        n = 60
        proj = _random_projection(rng, n)
        # Heavy depth ties: quantize so the ID tie-break actually decides.
        proj = ProjectedGaussians(
            ids=proj.ids, means2d=proj.means2d, conic=proj.conic,
            depths=np.round(proj.depths), radii=proj.radii, colors=proj.colors,
            opacities=proj.opacities,
        )
        grid = TileGrid(width=64, height=64, tile_size=16)
        assignment = assign_to_tiles(proj, grid)
        got = sort_tiles(assignment)
        want = ref.sort_tiles(assignment)
        for t in range(got.num_tiles):
            assert np.array_equal(got.rows_for(t), want.rows_for(t))
            assert np.array_equal(got.depths_for(t), want.depths_for(t))


class TestOrderMetricsGolden:
    def test_kendall_random_permutations(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 200))
            ids = rng.choice(10_000, size=n, replace=False)
            a = rng.permutation(ids)
            b = rng.permutation(ids)
            assert kendall_tau_distance(a, b) == ref.kendall_tau_distance(a, b)

    def test_inversion_counter_matches_scalar_merge_sort(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            seq = rng.permutation(int(rng.integers(2, 400)))
            assert _count_inversions(seq) == ref._count_inversions(seq.astype(np.int64))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            kendall_tau_distance(np.array([1, 1, 2]), np.array([1, 2, 1]))

    def test_inversion_counter_extremes(self):
        assert _count_inversions(np.arange(10)) == 0
        assert _count_inversions(np.arange(10)[::-1]) == 45
        assert _count_inversions(np.array([1, 0])) == 1
        assert _count_inversions(np.array([0])) == 0


class TestWorkloadVectorizedQueries:
    @pytest.fixture(scope="class")
    def model(self):
        return WorkloadModel.from_scene("family", num_frames=3, num_gaussians=900)

    def test_shared_fraction_matches_mask_scan(self, model):
        for frame in (1, 2):
            for tile_size in (16, 64):
                prev = model.frame_stream(frame - 1, "hd", tile_size)
                tiles, rows = prev.tile_of(), prev.values
                _, keys = model._pairs(frame, *model._resolve("hd"), tile_size)
                cur_keys = keys << 32 | keys >> 32  # ID-major -> tile-major
                prev_ids = model.frames[frame - 1].ids[rows]
                prev_keys = tiles.astype(np.int64) * (1 << 32) + prev_ids
                retained = np.isin(prev_keys, cur_keys)
                want = np.asarray(
                    [retained[tiles == t].mean() for t in np.unique(tiles)]
                )
                got = model.shared_fraction_per_tile(frame, "hd", tile_size)
                assert np.array_equal(got, want)
