"""Golden bit-identity tests for the tile-stream converted hw/metrics paths.

Each converted segmented program is cross-checked against its frozen scalar
pin (:mod:`repro.hw.reference` / :mod:`repro.metrics.reference` /
:mod:`repro.pipeline.reference`) — arrays must match *bit for bit*, not
approximately.  The pipeline rasterizer/sorting equivalents live in
``tests/test_raster_reference.py``; this file covers the workload queries,
the similarity metric, and large-tile termination.
"""

import numpy as np
import pytest

from raster_oracle import rasterize_one_tile
import repro.hw.reference as hw_ref
import repro.metrics.reference as metrics_ref
from repro.hw.workload import WorkloadModel, _churn_counts
from repro.metrics.similarity import frame_similarity
from repro.pipeline.projection import ProjectedGaussians
from repro.pipeline.sorting import sort_tiles
from repro.pipeline.tiling import TileGrid, assign_to_tiles


@pytest.fixture(scope="module")
def workload_model():
    return WorkloadModel.from_scene("family", num_frames=3, num_gaussians=1200)


CONFIGS = [((160, 90), 32), ((320, 180), 64)]


class TestWorkloadQueries:
    @pytest.mark.parametrize("resolution,tile_size", CONFIGS)
    def test_pair_keys_match(self, workload_model, resolution, tile_size):
        for frame in range(workload_model.num_frames):
            scalar = hw_ref.scalar_pair_keys(
                workload_model, frame, resolution, tile_size
            )
            width, height = workload_model._resolve(resolution)
            _, keys = workload_model._pairs(frame, width, height, tile_size)
            # `_pairs` keys are ID-major; the tile-major key *set* is unchanged.
            tile_major = keys << 32 | keys >> 32
            np.testing.assert_array_equal(np.sort(tile_major), np.sort(scalar))

    @pytest.mark.parametrize("resolution,tile_size", CONFIGS)
    def test_churn_counts_match(self, workload_model, resolution, tile_size):
        width, height = workload_model._resolve(resolution)
        runs = [
            workload_model._runs(frame, width, height, tile_size)
            for frame in range(workload_model.num_frames)
        ]
        for frame in range(1, workload_model.num_frames):
            assert _churn_counts(runs[frame - 1], runs[frame]) == hw_ref.scalar_churn_counts(
                workload_model, frame, resolution, tile_size
            )

    @pytest.mark.parametrize("resolution,tile_size", CONFIGS)
    def test_shared_fraction_bit_identical(self, workload_model, resolution, tile_size):
        for frame in range(1, workload_model.num_frames):
            np.testing.assert_array_equal(
                workload_model.shared_fraction_per_tile(frame, resolution, tile_size),
                hw_ref.scalar_shared_fraction_per_tile(
                    workload_model, frame, resolution, tile_size
                ),
            )

    @pytest.mark.parametrize("resolution,tile_size", CONFIGS)
    def test_order_differences_bit_identical(self, workload_model, resolution, tile_size):
        for frame in range(1, workload_model.num_frames):
            np.testing.assert_array_equal(
                workload_model.order_differences(frame, resolution, tile_size),
                hw_ref.scalar_order_differences(
                    workload_model, frame, resolution, tile_size
                ),
            )


class TestFrameSimilarity:
    def _sorted_frames(self, seed):
        rng = np.random.default_rng(seed)
        grid = TileGrid(width=96, height=96, tile_size=16)

        def frame(n, id_pool):
            ids = rng.choice(id_pool, size=n, replace=False)
            return ProjectedGaussians(
                ids=np.sort(ids),
                means2d=np.column_stack(
                    [rng.uniform(-4, 100, n), rng.uniform(-4, 100, n)]
                ),
                conic=np.tile(np.array([1.0, 0.0, 1.0]), (n, 1)),
                depths=rng.uniform(0.1, 10.0, n),
                radii=rng.uniform(1.0, 10.0, n),
                colors=np.full((n, 3), 0.5),
                opacities=np.full(n, 0.9),
            )

        pool = np.arange(400)
        prev = sort_tiles(assign_to_tiles(frame(250, pool), grid))
        cur = sort_tiles(assign_to_tiles(frame(250, pool), grid))
        return prev, cur

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_bit_identical_to_loop(self, seed):
        prev, cur = self._sorted_frames(seed)
        fast = frame_similarity(prev, cur)
        slow = metrics_ref.frame_similarity(prev, cur)
        np.testing.assert_array_equal(fast.shared_fractions, slow.shared_fractions)
        np.testing.assert_array_equal(fast.order_differences, slow.order_differences)


class TestLargeTileTermination:
    """Sparse splats on a 64 px tile with mid-stream termination."""

    def _layered_proj(self, rng, layers, opac_lo=0.9, opac_hi=0.99, tile=64):
        # A grid of small opaque splats covering the tile in several layers:
        # each splat's bbox covers a small fraction of the tile while
        # transmittance still collapses, forcing mid-stream termination.
        grid = np.array(
            [(x, y) for y in range(4, tile, 8) for x in range(4, tile, 8)],
            dtype=np.float64,
        )
        means = np.tile(grid, (layers, 1)) + rng.normal(
            0, 0.6, (grid.shape[0] * layers, 2)
        )
        m = means.shape[0]
        a = rng.uniform(0.01, 0.05, m)
        c = rng.uniform(0.01, 0.05, m)
        return ProjectedGaussians(
            ids=np.arange(m, dtype=np.int64),
            means2d=means,
            conic=np.column_stack([a, np.zeros(m), c]),
            depths=rng.uniform(0.1, 10.0, m),
            radii=rng.uniform(5.0, 7.0, m),
            colors=rng.uniform(0, 1, (m, 3)),
            opacities=rng.uniform(opac_lo, opac_hi, m),
        )

    @pytest.mark.parametrize("seed,termination", [
        (0, 1e-4),
        (1, 0.05),
        (2, 0.2),
        (3, 0.01),
    ])
    def test_bit_identical_with_termination(self, seed, termination):
        rng = np.random.default_rng(seed)
        proj = self._layered_proj(rng, layers=int(rng.integers(4, 10)))
        rows = np.arange(proj.ids.shape[0])
        rasterize_one_tile(proj, rows, 64, 64, termination=termination)
