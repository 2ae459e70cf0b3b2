"""Unit tests for the reuse-and-update sorting strategy (Neo's algorithm)."""

import pytest

from repro.core.reuse_update import ReuseUpdateSorter, SortTraffic
from repro.metrics.image import psnr
from repro.pipeline.renderer import Renderer


@pytest.fixture(scope="module")
def neo_run(request):
    """One Neo render sequence shared by the checks in this module."""
    scene = request.getfixturevalue("small_scene")
    cameras = request.getfixturevalue("camera_path")
    strategy = ReuseUpdateSorter()
    renderer = Renderer(scene, strategy=strategy)
    records = renderer.render_sequence(cameras)
    reference = Renderer(scene).render_sequence(cameras)
    return strategy, records, reference


class TestSortTraffic:
    def test_total_and_add(self):
        a = SortTraffic(table_read=10, table_write=5, incoming_read=2, incoming_write=2)
        b = SortTraffic(depth_refresh=7)
        a.add(b)
        assert a.total_bytes == 26


class TestReuseUpdate:
    def test_first_frame_initializes_tiles(self, neo_run):
        strategy, _, _ = neo_run
        first = strategy.frame_stats[0]
        assert first.tiles_initialized > 0
        assert first.tiles_reused == 0

    def test_later_frames_reuse(self, neo_run):
        strategy, _, _ = neo_run
        later = strategy.frame_stats[2]
        assert later.tiles_reused > 0
        assert later.reuse_fraction > 0.85

    def test_quality_close_to_exact(self, neo_run):
        _, records, reference = neo_run
        for ref, rec in zip(reference, records):
            assert psnr(ref.image, rec.image) > 40.0

    def test_tables_match_rendered_tiles(self, neo_run):
        strategy, records, _ = neo_run
        last = records[-1]
        for tile in range(strategy.table.num_tiles):
            rendered = last.sorted_tiles.ids_for(tile)
            # Everything rendered for a tile came from its table.
            assert set(rendered.tolist()).issubset(set(strategy.table.ids_for(tile).tolist()))

    def test_churn_is_small(self, neo_run):
        strategy, _, _ = neo_run
        for stats in strategy.frame_stats[1:]:
            assert stats.incoming_entries < 0.2 * stats.table_entries_after

    def test_traffic_accounted_every_frame(self, neo_run):
        strategy, _, _ = neo_run
        for stats in strategy.frame_stats:
            assert stats.traffic.total_bytes > 0
        total = strategy.total_traffic()
        assert total.total_bytes == sum(
            fs.traffic.total_bytes for fs in strategy.frame_stats
        )

    def test_depth_updates_applied(self, neo_run):
        strategy, _, _ = neo_run
        assert strategy.frame_stats[-1].depth_updates > 0

    def test_reset(self, small_scene, camera):
        strategy = ReuseUpdateSorter()
        Renderer(small_scene, strategy=strategy).render(camera)
        strategy.reset()
        assert len(strategy.table) == 0
        assert not strategy.frame_stats


class TestEagerDepthAblation:
    def test_eager_refresh_costs_more_traffic(self, small_scene, camera_path):
        deferred = ReuseUpdateSorter(defer_depth_update=True)
        Renderer(small_scene, strategy=deferred).render_sequence(camera_path)
        eager = ReuseUpdateSorter(defer_depth_update=False)
        Renderer(small_scene, strategy=eager).render_sequence(camera_path)
        assert eager.total_traffic().depth_refresh > 0
        assert eager.total_traffic().total_bytes > deferred.total_traffic().total_bytes

    def test_eager_refresh_quality_not_worse(self, small_scene, camera_path):
        reference = Renderer(small_scene).render_sequence(camera_path)
        eager = ReuseUpdateSorter(defer_depth_update=False)
        records = Renderer(small_scene, strategy=eager).render_sequence(camera_path)
        for ref, rec in zip(reference[1:], records[1:]):
            assert psnr(ref.image, rec.image) > 40.0


class TestValidation:
    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            ReuseUpdateSorter(chunk_size=1)
