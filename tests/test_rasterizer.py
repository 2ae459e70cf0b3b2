"""Unit tests for the tile-based alpha-blending rasterizer."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from raster_oracle import rasterize_one_tile
from repro.pipeline.framebuffer import Framebuffer
from repro.pipeline.projection import ProjectedGaussians, project_gaussians
from repro.pipeline.rasterizer import rasterize
from repro.pipeline.sorting import sort_tiles
from repro.pipeline.tiling import TileGrid, assign_to_tiles
from repro.scene.datasets import default_trajectory, load_scene


def _single_splat(x, y, radius=4.0, opacity=0.9, color=(1.0, 0.0, 0.0), depth=1.0, gid=0):
    sigma2 = (radius / 3.0) ** 2
    return ProjectedGaussians(
        ids=np.array([gid], dtype=np.int64),
        means2d=np.array([[x, y]], dtype=np.float64),
        conic=np.array([[1.0 / sigma2, 0.0, 1.0 / sigma2]]),
        depths=np.array([depth], dtype=np.float64),
        radii=np.array([radius], dtype=np.float64),
        colors=np.array([color], dtype=np.float64),
        opacities=np.array([opacity], dtype=np.float64),
    )


def _merge(*projs):
    return ProjectedGaussians(
        ids=np.concatenate([p.ids for p in projs]),
        means2d=np.concatenate([p.means2d for p in projs]),
        conic=np.concatenate([p.conic for p in projs]),
        depths=np.concatenate([p.depths for p in projs]),
        radii=np.concatenate([p.radii for p in projs]),
        colors=np.concatenate([p.colors for p in projs]),
        opacities=np.concatenate([p.opacities for p in projs]),
    )


class TestFramebuffer:
    def test_initial_state(self):
        fb = Framebuffer(width=8, height=4)
        assert fb.color.shape == (4, 8, 3)
        assert np.all(fb.transmittance == 1.0)
        assert fb.num_pixels == 32

    def test_finalize_composites_background(self):
        fb = Framebuffer(width=2, height=2, background=(0.0, 1.0, 0.0))
        image = fb.finalize()
        assert np.allclose(image[..., 1], 1.0)
        assert np.allclose(image[..., 0], 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Framebuffer(width=0, height=2)


class TestRasterizeTile:
    """One-tile frames through ``rasterize``, each pinned to the scalar loop."""

    def test_splat_renders_at_center(self):
        proj = _single_splat(8.0, 8.0)
        valid, stats, image = rasterize_one_tile(proj, [0], 16, 16)
        assert valid[0]
        assert image[8, 8, 0] > 0.5  # red splat visible
        assert stats.blend_ops > 0

    def test_front_splat_occludes_back(self):
        front = _single_splat(8.0, 8.0, opacity=0.95, color=(1, 0, 0), depth=1.0, gid=0)
        back = _single_splat(8.0, 8.0, opacity=0.95, color=(0, 0, 1), depth=2.0, gid=1)
        proj = _merge(front, back)
        _, _, image = rasterize_one_tile(proj, [0, 1], 16, 16)
        assert image[8, 8, 0] > image[8, 8, 2]

    def test_order_matters(self):
        a = _single_splat(8.0, 8.0, opacity=0.9, color=(1, 0, 0), depth=1.0, gid=0)
        b = _single_splat(8.0, 8.0, opacity=0.9, color=(0, 0, 1), depth=2.0, gid=1)
        proj = _merge(a, b)
        _, _, image_ab = rasterize_one_tile(proj, [0, 1], 16, 16)
        _, _, image_ba = rasterize_one_tile(proj, [1, 0], 16, 16)
        assert not np.allclose(image_ab, image_ba)

    def test_early_termination(self):
        # Stack many opaque splats: the loop must stop early.
        splats = [
            _single_splat(8.0, 8.0, radius=30.0, opacity=0.99, depth=float(i + 1), gid=i)
            for i in range(50)
        ]
        proj = _merge(*splats)
        _, stats, _ = rasterize_one_tile(proj, np.arange(50), 16, 16)
        assert stats.early_terminated_tiles == 1
        assert stats.gaussians_processed < 50

    def test_valid_bits_geometric_even_after_termination(self):
        splats = [
            _single_splat(8.0, 8.0, radius=30.0, opacity=0.99, depth=float(i + 1), gid=i)
            for i in range(30)
        ]
        proj = _merge(*splats)
        valid, stats, _ = rasterize_one_tile(proj, np.arange(30), 16, 16)
        # Every splat geometrically intersects the tile: all valid bits set
        # even though blending terminated early.
        assert stats.early_terminated_tiles == 1
        assert valid.all()

    def test_nonintersecting_splat_invalid(self):
        proj = _single_splat(100.0, 100.0, radius=3.0)
        valid, _, _ = rasterize_one_tile(proj, [0], 16, 16)
        assert not valid[0]

    def test_empty_rows(self):
        valid, stats, _ = rasterize_one_tile(
            _single_splat(0, 0), np.empty(0, dtype=np.int64), 16, 16
        )
        assert valid.shape == (0,)
        assert stats.blend_ops == 0

    def test_subtile_skips_work(self):
        # A tiny splat in one corner: with subtiles, blend ops stay small.
        proj = _single_splat(2.0, 2.0, radius=2.0)
        _, stats_sub, _ = rasterize_one_tile(proj, [0], 64, 64, subtile_size=8)
        assert stats_sub.subtile_tests == 64
        assert stats_sub.subtile_hits < 4


class TestRasterizeFrame:
    def test_full_frame(self, small_scene, camera):
        proj = project_gaussians(small_scene, camera)
        grid = TileGrid.for_camera(camera, 16)
        assignment = assign_to_tiles(proj, grid)
        result = rasterize(sort_tiles(assignment), proj, grid)
        assert result.image.shape == (camera.height, camera.width, 3)
        assert result.image.min() >= 0.0 and result.image.max() <= 1.0
        assert result.image.mean() > 0.01  # something rendered
        assert result.stats.gaussians_processed > 0

    def test_valid_bits_reported_per_nonempty_tile(self, small_scene, camera):
        proj = project_gaussians(small_scene, camera)
        grid = TileGrid.for_camera(camera, 16)
        assignment = assign_to_tiles(proj, grid)
        sorted_tiles = sort_tiles(assignment)
        result = rasterize(sorted_tiles, proj, grid)
        for t, valid in result.valid_bits.items():
            assert valid.shape[0] == sorted_tiles.rows_for(t).shape[0]

    def test_background(self, small_scene, camera):
        proj = project_gaussians(small_scene, camera)
        grid = TileGrid.for_camera(camera, 16)
        assignment = assign_to_tiles(proj, grid)
        result = rasterize(sort_tiles(assignment), proj, grid, background=(1.0, 1.0, 1.0))
        # Uncovered pixels take the background.
        assert result.image.max() == pytest.approx(1.0)


class TestConcurrentRasterize:
    def test_threads_match_the_serial_render(self):
        # Each thread keeps its own scratch buffers: threads rasterizing
        # different frames at once must each get the serial result.  Three
        # threads and a short switch interval force interleaving.
        scene = load_scene("family", num_gaussians=3000)
        cameras = default_trajectory("family", num_frames=4, width=320, height=180)
        grid = TileGrid.for_camera(cameras[0], 16)
        frames = []
        for camera in cameras:
            proj = project_gaussians(scene, camera)
            frames.append((sort_tiles(assign_to_tiles(proj, grid)), proj))
        serial = [rasterize(tiles, proj, grid) for tiles, proj in frames]
        orders = [[0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]]
        start = threading.Barrier(len(orders))

        def render(order):
            start.wait(timeout=60)
            return {k: rasterize(*frames[k], grid) for k in order for _ in range(2)}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(orders)) as pool:
                futures = [pool.submit(render, order) for order in orders]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            for k, want in enumerate(serial):
                np.testing.assert_array_equal(got[k].image, want.image)
                assert got[k].stats == want.stats
                assert got[k].valid_bits.keys() == want.valid_bits.keys()
                for t, bits in want.valid_bits.items():
                    np.testing.assert_array_equal(got[k].valid_bits[t], bits)
