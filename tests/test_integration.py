"""Integration tests: end-to-end behaviour across modules.

These exercise the claims that cut across subsystems: Neo's incremental
ordering reproduces the exact render; valid-bit feedback keeps tables
synchronized with tile membership; the workload model agrees with the
functional pipeline; and the full experiment drivers run.
"""

import numpy as np
import pytest

from repro.core import NeoSortStrategy, make_strategy
from repro.hw import GSCoreModel, NeoModel, OrinGpuModel, WorkloadModel
from repro.metrics import psnr, sequence_similarity
from repro.pipeline import Renderer
from repro.scene import default_trajectory, load_scene


@pytest.fixture(scope="module")
def scene():
    return load_scene("family", num_gaussians=900)


@pytest.fixture(scope="module")
def cameras():
    return default_trajectory("family", num_frames=6, width=192, height=108)


class TestNeoEndToEnd:
    def test_neo_render_matches_exact_within_tolerance(self, scene, cameras):
        reference = Renderer(scene).render_sequence(cameras)
        neo = NeoSortStrategy()
        records = Renderer(scene, strategy=neo).render_sequence(cameras)
        for ref, rec in zip(reference, records):
            assert psnr(ref.image, rec.image) > 45.0

    def test_table_membership_tracks_assignment(self, scene, cameras):
        neo = NeoSortStrategy()
        renderer = Renderer(scene, strategy=neo)
        records = renderer.render_sequence(cameras)
        last = records[-1]
        for tile in last.assignment.nonempty_tiles():
            assigned = set(last.assignment.tile_ids(tile).tolist())
            table = set(neo.table.ids_for(tile)[neo.table.valid_for(tile)].tolist())
            # The table may lag by one frame of churn, but overlap must be
            # high once the sequence warms up.
            overlap = len(assigned & table) / max(len(assigned), 1)
            assert overlap > 0.8

    def test_sequence_similarity_matches_paper_band(self, scene, cameras):
        records = Renderer(scene).render_sequence(cameras)
        stats = sequence_similarity([r.sorted_tiles for r in records])
        # Fig. 6: >90% of tiles retain >78% of their Gaussians.
        assert stats.fraction_of_tiles_retaining(0.78) > 0.9

    def test_strategies_ranked_by_quality(self, scene, cameras):
        reference = Renderer(scene).render_sequence(cameras)

        def quality(strategy):
            records = Renderer(scene, strategy=strategy).render_sequence(cameras)
            return np.mean(
                [psnr(a.image, b.image) for a, b in zip(reference[2:], records[2:])]
            )

        neo_q = quality(make_strategy("neo"))
        periodic_q = quality(make_strategy("periodic", period=6))
        hier_q = quality(make_strategy("hierarchical"))
        assert hier_q >= neo_q > periodic_q


class TestWorkloadConsistency:
    def test_workload_pairs_match_functional_renderer(self, scene, cameras):
        wm = WorkloadModel.from_render(scene, cameras, nominal_gaussians=len(scene))
        renderer = Renderer(scene, tile_size=16)
        for i, camera in enumerate(cameras[:3]):
            record = renderer.render(camera, frame_index=i)
            w = wm.frame_workload(i, (camera.width, camera.height), 16)
            assert w.pairs == pytest.approx(record.stats.num_pairs)
            assert w.visible == pytest.approx(record.stats.num_visible)

    def test_neo_strategy_churn_matches_workload_churn(self, scene):
        for speed in (1.0, 4.0):
            cameras = default_trajectory(
                "family", num_frames=6, speed=speed, width=192, height=108
            )
            wm = WorkloadModel.from_render(scene, cameras, nominal_gaussians=len(scene))
            neo = NeoSortStrategy()
            Renderer(scene, tile_size=16, strategy=neo).render_sequence(cameras)
            size = (cameras[0].width, cameras[0].height)
            workloads = [wm.frame_workload(i, size, 16) for i in range(len(cameras))]
            for i, (stats, w) in enumerate(zip(neo.frame_stats, workloads)):
                # Entries the table gains never exceed the geometric incoming
                # pairs (a pair whose stale entry is still valid is reused).
                assert stats.incoming_entries <= w.incoming_pairs, (speed, i)
                if i:
                    # Outgoing pairs lose their valid bit in frame i - 1's
                    # raster and are deleted when frame i sorts.
                    assert stats.deleted_entries == workloads[i - 1].outgoing_pairs, (
                        speed,
                        i,
                    )


class TestSystemOrdering:
    def test_neo_fastest_gpu_slowest_at_qhd(self, scene, cameras):
        wm = WorkloadModel.from_render(
            scene, cameras, nominal_gaussians=1_100_000, scene_name="family"
        )
        neo = NeoModel().simulate(wm.sequence_workloads("qhd", 64))
        gscore = GSCoreModel().simulate(wm.sequence_workloads("qhd", 16))
        gpu = OrinGpuModel().simulate(wm.sequence_workloads("qhd", 16))
        assert neo.fps > gscore.fps > gpu.fps

    def test_speedup_grows_with_resolution(self, scene, cameras):
        wm = WorkloadModel.from_render(
            scene, cameras, nominal_gaussians=1_100_000, scene_name="family"
        )
        ratios = []
        for res in ("hd", "qhd"):
            neo = NeoModel().simulate(wm.sequence_workloads(res, 64))
            gscore = GSCoreModel().simulate(wm.sequence_workloads(res, 16))
            ratios.append(neo.fps / gscore.fps)
        assert ratios[1] > ratios[0]  # Fig. 15: gap widens at QHD
