"""Unit tests for the hardware workload model."""

import numpy as np
import pytest

from repro.hw.workload import FrameGeometry, WorkloadModel, pair_lists
from repro.pipeline.culling import frustum_cull
from repro.pipeline.projection import project_gaussians
from repro.scene import default_trajectory, load_scene


@pytest.fixture(scope="module")
def workload_model():
    return WorkloadModel.from_scene("family", num_frames=4, num_gaussians=1500)


class TestPairLists:
    def test_single_small_splat(self):
        tiles, rows = pair_lists(
            np.array([[10.0, 10.0]]), np.array([2.0]), width=64, height=64, tile_size=16
        )
        assert tiles.shape == (1,)
        assert rows.shape == (1,)
        assert tiles[0] == 0

    def test_offscreen(self):
        tiles, rows = pair_lists(
            np.array([[-50.0, -50.0]]), np.array([2.0]), width=64, height=64, tile_size=16
        )
        assert tiles.shape == (0,)

    def test_empty(self):
        tiles, rows = pair_lists(
            np.zeros((0, 2)), np.zeros(0), width=64, height=64, tile_size=16
        )
        assert tiles.shape == (0,)

    def test_matches_pipeline_tiling(self, small_scene, camera):
        from repro.pipeline.projection import project_gaussians
        from repro.pipeline.tiling import TileGrid, assign_to_tiles

        proj = project_gaussians(small_scene, camera)
        grid = TileGrid.for_camera(camera, 16)
        assignment = assign_to_tiles(proj, grid)
        tiles, rows = pair_lists(
            proj.means2d, proj.radii, camera.width, camera.height, 16
        )
        assert tiles.shape[0] == assignment.num_pairs
        occ = np.bincount(tiles, minlength=grid.num_tiles)
        assert np.array_equal(occ, assignment.occupancy())


class TestWorkloadModel:
    def test_capture(self, workload_model):
        assert workload_model.num_frames == 4
        assert workload_model.count_scale > 100
        for frame in workload_model.frames:
            assert isinstance(frame, FrameGeometry)
            assert frame.num_visible > 0

    def test_frame_workload_scaling(self, workload_model):
        w = workload_model.frame_workload(1, "qhd", 64)
        assert w.num_gaussians == pytest.approx(1_100_000)
        assert w.visible > 100_000
        assert w.pairs > w.visible  # duplication factor > 1
        assert w.nonempty_tiles <= w.num_tiles

    def test_resolution_monotonicity(self, workload_model):
        hd = workload_model.frame_workload(1, "hd", 64)
        qhd = workload_model.frame_workload(1, "qhd", 64)
        assert qhd.pairs > hd.pairs
        assert qhd.num_tiles > hd.num_tiles
        assert qhd.visible == hd.visible  # culling is resolution-independent

    def test_tile_size_monotonicity(self, workload_model):
        t64 = workload_model.frame_workload(1, "qhd", 64)
        t16 = workload_model.frame_workload(1, "qhd", 16)
        assert t16.pairs > t64.pairs  # smaller tiles duplicate more

    def test_churn_zero_on_first_frame(self, workload_model):
        w = workload_model.frame_workload(0, "hd", 64)
        assert w.incoming_pairs == 0
        assert w.outgoing_pairs == 0
        assert w.retained_fraction == 1.0

    def test_churn_small_on_later_frames(self, workload_model):
        w = workload_model.frame_workload(2, "qhd", 64)
        assert 0 < w.incoming_pairs < 0.2 * w.pairs
        assert w.churn_fraction < 0.2

    def test_sequence_workloads(self, workload_model):
        ws = workload_model.sequence_workloads("hd", 64)
        assert len(ws) == workload_model.num_frames
        assert [w.frame_index for w in ws] == list(range(4))

    def test_shared_fraction_range(self, workload_model):
        fractions = workload_model.shared_fraction_per_tile(1, "qhd", 64)
        assert fractions.size > 0
        assert (fractions >= 0).all() and (fractions <= 1).all()
        assert np.median(fractions) > 0.8  # the Fig. 6 claim

    def test_order_differences_small(self, workload_model):
        diffs = workload_model.order_differences(1, "qhd", 64)
        w = workload_model.frame_workload(1, "qhd", 64)
        assert diffs.size > 0
        assert (diffs >= 0).all()
        # 99th percentile is a small fraction of the table length (Fig. 7).
        # The bound is loose at this coarse capture density (1500 Gaussians
        # -> rank quantization); the fig07 driver uses a denser capture.
        assert np.percentile(diffs, 99) < 0.15 * w.mean_occupancy

    def test_first_frame_similarity_queries_rejected(self, workload_model):
        with pytest.raises(ValueError):
            workload_model.shared_fraction_per_tile(0, "hd", 64)
        with pytest.raises(ValueError):
            workload_model.order_differences(0, "hd", 64)

    def test_from_render(self, small_scene):
        cameras = default_trajectory("family", num_frames=2, width=240, height=135)
        wm = WorkloadModel.from_render(small_scene, cameras, nominal_gaussians=10_000)
        assert wm.count_scale == pytest.approx(10_000 / len(small_scene))

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadModel([], 100, 100, 1.0, 100)


class TestExactScale:
    @pytest.mark.parametrize("resolution,doubled", [("hd", "qhd"), ("fhd", "uhd")])
    def test_doubled_resolution_doubles_the_geometry_bit_for_bit(
        self, workload_model, resolution, doubled
    ):
        for frame in range(workload_model.num_frames):
            means2d, radii = workload_model.scaled_geometry(frame, resolution)
            means2d_2x, radii_2x = workload_model.scaled_geometry(frame, doubled)
            assert means2d_2x.tobytes() == (2 * means2d).tobytes()
            assert radii_2x.tobytes() == (2 * radii).tobytes()


class TestSceneMemo:
    def test_one_instance_per_preset_and_count(self):
        assert load_scene("family") is load_scene("Family")
        assert load_scene("family") is load_scene("FAMILY", num_gaussians=4000)
        assert load_scene("family", num_gaussians=300) is not load_scene("family")

    def test_shared_scene_is_read_only(self):
        scene = load_scene("horse", num_gaussians=64)
        arrays = {
            "means": scene.means,
            "scales": scene.scales,
            "quats": scene.quats,
            "opacities": scene.opacities,
            "sh_coeffs": scene.sh_coeffs,
            "covariances": scene.covariances(),
        }
        for name, array in arrays.items():
            with pytest.raises(ValueError):
                array[0] = 1.0
            with pytest.raises(ValueError):
                array *= 2.0
        assert scene.covariances() is arrays["covariances"]

    def test_subset_is_writeable(self):
        sub = load_scene("horse", num_gaussians=64).subset(np.arange(10))
        for array in (
            sub.means, sub.scales, sub.quats, sub.opacities, sub.sh_coeffs, sub.covariances()
        ):
            assert array.flags.writeable
        sub.means[0] = 1.0


class TestGeometryOnlyCapture:
    def test_capture_evaluates_no_color(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("workload capture evaluated SH colors")

        monkeypatch.setattr("repro.pipeline.projection.eval_sh_color", refuse)
        monkeypatch.setattr("repro.scene.sh.eval_sh_color", refuse)
        wm = WorkloadModel.from_scene("family", num_frames=3, num_gaussians=400)
        assert wm.frame_workload(2, "hd", 16).pairs > 0
        monkeypatch.undo()

        # The geometry is the full projection's, bit for bit.
        scene = load_scene("family", num_gaussians=400)
        cameras = default_trajectory("family", num_frames=3, width=wm.capture_width,
                                     height=wm.capture_height)
        for frame, camera in zip(wm.frames, cameras):
            proj = project_gaussians(scene, camera, frustum_cull(scene, camera).visible_ids)
            for name in ("ids", "means2d", "radii", "depths"):
                got, want = getattr(frame, name), getattr(proj, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
