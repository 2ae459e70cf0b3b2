"""Unit tests for temporal-similarity metrics (Figs. 6-7 machinery)."""

import numpy as np
import pytest

from repro.metrics.reference import tile_order_differences, tile_shared_fraction
from repro.metrics.similarity import SimilarityStats, frame_similarity, sequence_similarity
from repro.pipeline.renderer import Renderer
from repro.pipeline.sorting import SortedTiles


class TestTileMetrics:
    def test_shared_fraction(self):
        prev = np.array([1, 2, 3, 4])
        cur = np.array([2, 3, 5])
        assert tile_shared_fraction(prev, cur) == pytest.approx(0.5)

    def test_shared_fraction_empty_prev(self):
        assert tile_shared_fraction(np.empty(0, dtype=np.int64), np.array([1])) == 1.0

    def test_order_differences_identical(self):
        ids = np.array([5, 3, 9, 1])
        diffs = tile_order_differences(ids, ids)
        assert np.all(diffs == 0)

    def test_order_differences_swap(self):
        prev = np.array([1, 2, 3, 4])
        cur = np.array([2, 1, 3, 4])
        diffs = tile_order_differences(prev, cur)
        assert sorted(diffs.tolist()) == [0.0, 0.0, 1.0, 1.0]

    def test_order_differences_ignore_churn(self):
        # Added/removed IDs must not count as displacement.
        prev = np.array([1, 2, 3])
        cur = np.array([7, 1, 2, 3, 8])
        diffs = tile_order_differences(prev, cur)
        assert np.all(diffs == 0)

    def test_too_few_shared(self):
        assert tile_order_differences(np.array([1]), np.array([1])).size == 0


class TestFrameSimilarity:
    @pytest.fixture(scope="class")
    def two_frames(self, request):
        scene = request.getfixturevalue("small_scene")
        cameras = request.getfixturevalue("camera_path")
        records = Renderer(scene).render_sequence(cameras[:2])
        return records[0].sorted_tiles, records[1].sorted_tiles

    def test_stats_shapes(self, two_frames):
        stats = frame_similarity(*two_frames)
        assert isinstance(stats, SimilarityStats)
        assert stats.shared_fractions.size > 0
        assert ((stats.shared_fractions >= 0) & (stats.shared_fractions <= 1)).all()

    def test_high_retention_for_slow_motion(self, two_frames):
        stats = frame_similarity(*two_frames)
        assert stats.fraction_of_tiles_retaining(0.78) > 0.8

    def test_cdf_monotone(self, two_frames):
        grid, cdf = frame_similarity(*two_frames).cdf()
        assert (np.diff(cdf) >= 0).all()
        assert cdf[-1] == pytest.approx(1.0)

    def test_percentiles(self, two_frames):
        stats = frame_similarity(*two_frames)
        pct = stats.order_percentiles()
        assert set(pct) == {90, 95, 99}
        assert pct[90] <= pct[95] <= pct[99]

    def test_tile_count_mismatch_rejected(self, two_frames):
        short = SortedTiles.from_tile_lists([], [], [])
        with pytest.raises(ValueError):
            frame_similarity(two_frames[0], short)


def _frame(*tiles: list[int]) -> SortedTiles:
    """Sorted frame whose tile ``t`` holds the Gaussian IDs ``tiles[t]``."""
    ids = [np.asarray(t, dtype=np.int64) for t in tiles]
    return SortedTiles.from_tile_lists(
        [np.arange(a.shape[0]) for a in ids], ids, [np.arange(a.shape[0], dtype=float) for a in ids]
    )


class TestKeyDomain:
    """Inputs the ``tile * M + id`` key cannot represent are rejected by name."""

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            frame_similarity(_frame([1, -2]), _frame([1, 2]))

    def test_duplicate_ids_within_a_tile_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            frame_similarity(_frame([1, 2], [3]), _frame([2, 2], [3]))

    def test_key_overflow_rejected(self):
        huge = 2**62
        with pytest.raises(ValueError, match="overflow"):
            frame_similarity(_frame([1], [huge]), _frame([1], [huge]))


class TestSequenceSimilarity:
    def test_pools_all_pairs(self, small_scene, camera_path):
        records = Renderer(small_scene).render_sequence(camera_path)
        stats = sequence_similarity([r.sorted_tiles for r in records])
        single = frame_similarity(records[0].sorted_tiles, records[1].sorted_tiles)
        assert stats.shared_fractions.size > single.shared_fractions.size

    def test_needs_two_frames(self, small_scene, camera):
        record = Renderer(small_scene).render(camera)
        with pytest.raises(ValueError):
            sequence_similarity([record.sorted_tiles])

    def test_empty_stats_degrade_gracefully(self):
        stats = SimilarityStats(
            shared_fractions=np.empty(0), order_differences=np.empty(0)
        )
        assert stats.fraction_of_tiles_retaining(0.5) == 0.0
        assert stats.order_percentiles()[99] == 0.0
