"""Unit tests for the end-to-end Renderer orchestration."""

import numpy as np

from repro.pipeline.renderer import ExactSortStrategy, Renderer
from repro.pipeline.sorting import is_depth_sorted


class TestRenderer:
    def test_single_frame(self, small_scene, camera):
        record = Renderer(small_scene).render(camera)
        assert record.image.shape == (camera.height, camera.width, 3)
        assert record.stats.num_visible > 0
        assert record.stats.num_pairs >= record.stats.num_visible * 0 + 1
        assert record.stats.num_gaussians == len(small_scene)

    def test_sequence_threads_frame_indices(self, small_scene, camera_path):
        records = Renderer(small_scene).render_sequence(camera_path)
        assert [r.stats.frame_index for r in records] == list(range(len(camera_path)))

    def test_deterministic(self, small_scene, camera):
        a = Renderer(small_scene).render(camera)
        b = Renderer(small_scene).render(camera)
        assert np.array_equal(a.image, b.image)

    def test_exact_strategy_sorts(self, small_scene, camera):
        record = Renderer(small_scene, strategy=ExactSortStrategy()).render(camera)
        st = record.sorted_tiles
        for t in range(st.num_tiles):
            assert is_depth_sorted(st.depths_for(t))

    def test_occupancy_stats(self, small_scene, camera):
        record = Renderer(small_scene).render(camera)
        assert record.stats.occupancy.sum() == record.stats.num_pairs
        assert record.stats.mean_occupancy > 0

    def test_tile_size_configurable(self, small_scene, camera):
        r16 = Renderer(small_scene, tile_size=16).render(camera)
        r32 = Renderer(small_scene, tile_size=32).render(camera)
        # Bigger tiles -> fewer duplicated pairs.
        assert r32.stats.num_pairs <= r16.stats.num_pairs
        # Images stay close (blending is tile-size independent up to
        # traversal order of equal-depth splats).
        assert np.abs(r16.image - r32.image).mean() < 0.02

    def test_no_subtiling(self, small_scene, camera):
        record = Renderer(small_scene, subtile_size=None).render(camera)
        assert record.stats.subtile_tests == 0
        assert record.image.mean() > 0.01


class TestStageTimings:
    def test_every_frame_carries_timings(self, small_scene, camera_path):
        records = Renderer(small_scene).render_sequence(camera_path)
        for record in records:
            stages = record.timings.as_dict()
            assert stages["total_s"] >= 0.0
            assert stages["raster_s"] >= 0.0
            assert record.timings.total_s == (
                record.timings.cull_s + record.timings.project_s
                + record.timings.tile_s + record.timings.sort_s
                + record.timings.raster_s + record.timings.feedback_s
            )

    def test_strategy_feedback_is_timed(self, small_scene, camera_path):
        from repro.core import NeoSortStrategy

        records = Renderer(small_scene, strategy=NeoSortStrategy()).render_sequence(
            camera_path
        )
        for record in records:
            assert record.timings.feedback_s > 0.0
            assert record.timings.as_dict()["feedback_s"] == record.timings.feedback_s

    def test_aggregate_timings_sums_frames(self, small_scene, camera_path):
        from repro.pipeline.renderer import aggregate_timings

        records = Renderer(small_scene).render_sequence(camera_path)
        total = aggregate_timings(records)
        assert total.raster_s == sum(r.timings.raster_s for r in records)
        assert total.total_s > 0.0
