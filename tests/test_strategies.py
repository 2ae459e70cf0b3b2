"""Unit tests for the baseline sorting strategies."""

import numpy as np
import pytest

from repro.core.strategies import (
    BackgroundSortStrategy,
    FullResortStrategy,
    HierarchicalSortStrategy,
    NeoSortStrategy,
    PeriodicSortStrategy,
    make_strategy,
)
from repro.core.gaussian_table import TABLE_ENTRY_BYTES
from repro.core.reuse_update import SortTraffic
from repro.metrics.image import psnr
from repro.pipeline.culling import frustum_cull
from repro.pipeline.projection import project_gaussians
from repro.pipeline.renderer import Renderer
from repro.pipeline.sorting import is_depth_sorted, sort_tiles
from repro.pipeline.tiling import TileGrid, assign_to_tiles
from repro.scene.datasets import archetype_trajectory, load_scene


class TestFactory:
    def test_all_names(self):
        assert isinstance(make_strategy("full"), FullResortStrategy)
        assert isinstance(make_strategy("periodic", period=5), PeriodicSortStrategy)
        assert isinstance(make_strategy("background"), BackgroundSortStrategy)
        assert isinstance(make_strategy("hierarchical"), HierarchicalSortStrategy)
        assert isinstance(make_strategy("NEO"), NeoSortStrategy)

    def test_unknown(self):
        with pytest.raises(KeyError):
            make_strategy("quantum")


class TestFullResort:
    def test_exact_order_and_traffic(self, small_scene, camera_path):
        strategy = FullResortStrategy()
        records = Renderer(small_scene, strategy=strategy).render_sequence(camera_path)
        for record in records:
            st = record.sorted_tiles
            for t in range(st.num_tiles):
                assert is_depth_sorted(st.depths_for(t))
        assert len(strategy.frame_traffic) == len(camera_path)
        assert strategy.total_traffic().total_bytes > 0


class TestPeriodic:
    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicSortStrategy(period=0)

    def test_skip_frames_cost_nothing(self, small_scene, camera_path):
        strategy = PeriodicSortStrategy(period=3)
        Renderer(small_scene, strategy=strategy).render_sequence(camera_path)
        costs = [t.total_bytes for t in strategy.frame_traffic]
        assert costs[0] > 0
        assert costs[1] == 0
        assert costs[2] == 0
        assert costs[3] > 0

    def test_quality_decays_between_refreshes(self, small_scene):
        from repro.scene import TrajectoryConfig, orbit_trajectory

        config = TrajectoryConfig(num_frames=8, width=160, height=90, speed=4.0)
        cameras = orbit_trajectory(np.zeros(3), 6.0, config, height_offset=1.2)
        reference = Renderer(small_scene).render_sequence(cameras)
        strategy = PeriodicSortStrategy(period=8)
        records = Renderer(small_scene, strategy=strategy).render_sequence(cameras)
        q1 = psnr(reference[1].image, records[1].image)
        q7 = psnr(reference[7].image, records[7].image)
        assert q7 < q1  # error accumulates away from the refresh


class TestBackground:
    def test_validation(self):
        with pytest.raises(ValueError):
            BackgroundSortStrategy(lag=0)

    def test_sustained_traffic(self, small_scene, camera_path):
        strategy = BackgroundSortStrategy(lag=2)
        Renderer(small_scene, strategy=strategy).render_sequence(camera_path)
        assert all(t.total_bytes > 0 for t in strategy.frame_traffic)

    def test_uses_lagged_ordering(self, small_scene, camera_path):
        lagged = BackgroundSortStrategy(lag=2)
        records = Renderer(small_scene, strategy=lagged).render_sequence(camera_path)
        reference = Renderer(small_scene).render_sequence(camera_path)
        # After warm-up the rendered order comes from an older viewpoint:
        # images differ from the exact render (but not wildly).
        diffs = [
            np.abs(ref.image - rec.image).max()
            for ref, rec in zip(reference[3:], records[3:])
        ]
        assert max(diffs) > 0.0

    def test_worse_quality_than_neo(self, small_scene, camera_path):
        reference = Renderer(small_scene).render_sequence(camera_path)
        bg_records = Renderer(
            small_scene, strategy=BackgroundSortStrategy(lag=3)
        ).render_sequence(camera_path)
        neo_records = Renderer(
            small_scene, strategy=NeoSortStrategy()
        ).render_sequence(camera_path)
        bg_q = np.mean([psnr(a.image, b.image) for a, b in zip(reference[3:], bg_records[3:])])
        neo_q = np.mean([psnr(a.image, b.image) for a, b in zip(reference[3:], neo_records[3:])])
        assert neo_q > bg_q


class TestHierarchical:
    @pytest.mark.parametrize("tile_size", [16, 64])
    def test_equals_exact_sort_with_two_table_passes(self, tile_size):
        # The coarse-bucket + fine-sort order is the exact (depth, id) sort,
        # and each frame streams the table twice: read and written per pass.
        for scene_name in ("family", "train"):
            scene = load_scene(scene_name, num_gaussians=1500)
            for archetype in ("orbit", "shake", "teleport"):
                cameras = archetype_trajectory(
                    scene_name, archetype, num_frames=4, width=320, height=180
                )
                strategy = HierarchicalSortStrategy()
                for index, camera in enumerate(cameras):
                    culled = frustum_cull(scene, camera)
                    projected = project_gaussians(scene, camera, culled.visible_ids)
                    assignment = assign_to_tiles(
                        projected, TileGrid(camera.width, camera.height, tile_size)
                    )
                    got = strategy.sort_frame(assignment, index)
                    want = sort_tiles(assignment)
                    np.testing.assert_array_equal(got.stream.values, want.stream.values)
                    np.testing.assert_array_equal(got.stream.offsets, want.stream.offsets)
                    np.testing.assert_array_equal(got.ids, want.ids)
                    np.testing.assert_array_equal(got.depths, want.depths)
                    table_bytes = 2 * assignment.num_pairs * TABLE_ENTRY_BYTES
                    assert strategy.frame_traffic[index] == SortTraffic(
                        table_read=table_bytes, table_write=table_bytes
                    )
                assert len(strategy.frame_traffic) == len(cameras)

    def test_order_is_exact(self, small_scene, camera):
        strategy = HierarchicalSortStrategy()
        record = Renderer(small_scene, strategy=strategy).render(camera)
        st = record.sorted_tiles
        for t in range(st.num_tiles):
            assert is_depth_sorted(st.depths_for(t))

    def test_traffic_twice_neo_reorder(self, small_scene, camera_path):
        hier = HierarchicalSortStrategy()
        Renderer(small_scene, strategy=hier).render_sequence(camera_path)
        neo = NeoSortStrategy()
        Renderer(small_scene, strategy=neo).render_sequence(camera_path)
        # Hierarchical streams the table twice per frame; Neo once (plus
        # incoming handling), so hierarchical carries clearly more traffic.
        assert (
            hier.total_traffic().total_bytes
            > 1.5 * neo.total_traffic().table_read
            + neo.total_traffic().table_write
        )


class TestSharedHelpers:
    """The closed-form traffic and the id->row replay, pinned to their loops."""

    def test_full_sort_traffic_matches_full_sort(self, rng):
        from repro.core.dynamic_partial_sort import PartialSortStats, full_sort
        from repro.core.reuse_update import full_sort_traffic

        occupancy = np.concatenate([[0, 1, 2, 3, 4, 5, 8, 9, 255, 256, 257, 1024, 1025],
                                    rng.integers(0, 3000, 40)])
        for chunk_size in (2, 3, 16, 256):
            stats = PartialSortStats()
            for n in occupancy:
                full_sort(np.zeros(n), np.zeros(n, dtype=np.int64), chunk_size, stats)
            traffic = full_sort_traffic(occupancy, chunk_size)
            assert traffic.table_read == stats.bytes_read
            assert traffic.table_write == stats.bytes_written
            assert traffic.total_bytes == stats.bytes_read + stats.bytes_written

    @staticmethod
    def _assert_replay_matches_lookup(assignment, cached):
        from repro.core.strategies import _replay_cached_order

        got = _replay_cached_order(assignment, cached)
        assert got.num_tiles == assignment.num_tiles
        id_to_row = {int(g): i for i, g in enumerate(assignment.projected.ids)}
        for tile in range(assignment.num_tiles):
            if tile >= cached.num_tiles:
                assert got.rows_for(tile).shape[0] == 0
                continue
            ids = cached.ids_for(tile)
            keep = [i for i, g in enumerate(ids) if int(g) in id_to_row]
            assert got.rows_for(tile).tolist() == [id_to_row[int(ids[i])] for i in keep]
            assert np.array_equal(got.ids_for(tile), ids[keep])
            assert np.array_equal(got.depths_for(tile), cached.depths_for(tile)[keep])

    @pytest.mark.parametrize("lag", [1, 2])
    def test_replay_matches_per_entry_lookup(self, small_scene, camera_path, lag):
        records = Renderer(small_scene).render_sequence(camera_path)
        for old, new in zip(records, records[lag:]):
            self._assert_replay_matches_lookup(new.assignment, old.sorted_tiles)

    def test_replay_across_a_grid_change(self, small_scene, camera_path):
        from repro.scene import Camera

        big = camera_path[0]
        small = Camera.from_fov(width=96, height=54, fov_y_degrees=60.0,
                                world_to_camera=big.world_to_camera, far=big.far)
        renderer = Renderer(small_scene)
        wide, narrow = renderer.render(big), renderer.render(small)
        assert narrow.assignment.num_tiles < wide.assignment.num_tiles
        self._assert_replay_matches_lookup(narrow.assignment, wide.sorted_tiles)
        self._assert_replay_matches_lookup(wide.assignment, narrow.sorted_tiles)
