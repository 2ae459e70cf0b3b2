"""Unit tests for EWA projection / feature extraction."""

import numpy as np
import pytest

from repro.pipeline.culling import frustum_cull
from repro.pipeline.projection import (
    COV2D_DILATION,
    compute_cov2d,
    conic_from_cov2d,
    project_gaussians,
    project_geometry,
    splat_radii,
)
from repro.scene import Camera, GaussianScene, default_trajectory, load_scene, look_at
from repro.scene.sh import eval_sh_color, normalize_directions

_GEOMETRY_FIELDS = ("ids", "means2d", "depths", "radii")


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _edge_scene() -> GaussianScene:
    """Four splats before a camera at +6 x looking at the origin.

    Row 0 is ordinary, row 1 sits behind the camera, row 2's covariance
    overflows to non-finite (no positive-definite 2D covariance), and row 3
    lies between the eye and the near plane.
    """
    return GaussianScene(
        means=np.array([[0.0, 0.0, 0.0], [9.0, 0.0, 0.0], [0.5, 0.2, 0.0], [5.995, 0.0, 0.0]]),
        scales=np.array([[0.1, 0.2, 0.1], [0.1, 0.1, 0.1], [1e200, 0.1, 0.1], [0.1, 0.1, 0.1]]),
        quats=np.tile([1.0, 0.0, 0.0, 0.0], (4, 1)),
        opacities=np.full(4, 0.5),
        sh_coeffs=np.zeros((4, 1, 3)),
    )


class TestConic:
    def test_inverse_of_isotropic(self):
        cov = np.array([[[4.0, 0.0], [0.0, 4.0]]])
        conic, valid = conic_from_cov2d(cov)
        assert valid[0]
        assert np.allclose(conic[0], [0.25, 0.0, 0.25])

    def test_degenerate_flagged_invalid(self):
        cov = np.array([[[1.0, 1.0], [1.0, 1.0]]])  # det == 0
        _, valid = conic_from_cov2d(cov)
        assert not valid[0]

    def test_matches_matrix_inverse(self, rng):
        mats = rng.normal(size=(20, 2, 2))
        cov = mats @ mats.transpose(0, 2, 1) + 0.1 * np.eye(2)
        conic, valid = conic_from_cov2d(cov)
        assert valid.all()
        inv = np.linalg.inv(cov)
        assert np.allclose(conic[:, 0], inv[:, 0, 0])
        assert np.allclose(conic[:, 1], inv[:, 0, 1])
        assert np.allclose(conic[:, 2], inv[:, 1, 1])


class TestRadii:
    def test_isotropic_radius(self):
        cov = np.array([[[4.0, 0.0], [0.0, 4.0]]])
        assert splat_radii(cov)[0] == pytest.approx(np.ceil(3.0 * 2.0))

    def test_major_axis_dominates(self):
        cov = np.array([[[100.0, 0.0], [0.0, 1.0]]])
        assert splat_radii(cov)[0] == pytest.approx(30.0)


class TestProjection:
    def test_projection_basic(self, small_scene, camera):
        culled = frustum_cull(small_scene, camera)
        proj = project_gaussians(small_scene, camera, culled.visible_ids)
        assert len(proj) > 0
        assert len(proj) <= culled.num_visible
        assert (proj.depths > camera.near).all()
        assert (proj.radii > 0).all()
        assert (proj.opacities > 0).all()
        assert np.isfinite(proj.means2d).all()
        assert np.isfinite(proj.conic).all()

    def test_ids_are_global(self, small_scene, camera):
        culled = frustum_cull(small_scene, camera)
        proj = project_gaussians(small_scene, camera, culled.visible_ids)
        assert set(proj.ids).issubset(set(culled.visible_ids))

    def test_default_projects_everything_visible(self, small_scene, camera):
        proj = project_gaussians(small_scene, camera)
        culled = frustum_cull(small_scene, camera)
        proj_culled = project_gaussians(small_scene, camera, culled.visible_ids)
        # Projecting everything keeps at least the culled set.
        assert set(proj_culled.ids).issubset(set(proj.ids))

    def test_dilation_floor_on_cov2d(self, small_scene, camera):
        cam_points = camera.transform_points(small_scene.means)
        cov2d = compute_cov2d(
            cam_points, small_scene.covariances(), camera.world_to_camera[:3, :3], camera
        )
        assert (cov2d[:, 0, 0] >= COV2D_DILATION - 1e-12).all()
        assert (cov2d[:, 1, 1] >= COV2D_DILATION - 1e-12).all()

    def test_resolution_scales_geometry(self, small_scene, camera):
        proj_lo = project_gaussians(small_scene, camera)
        cam_hi = camera.with_resolution(camera.width * 2, camera.height * 2)
        proj_hi = project_gaussians(small_scene, camera=cam_hi)
        shared, lo_idx, hi_idx = np.intersect1d(
            proj_lo.ids, proj_hi.ids, return_indices=True
        )
        assert shared.size > 0
        ratio = proj_hi.means2d[hi_idx] / np.maximum(proj_lo.means2d[lo_idx], 1e-9)
        # Screen positions roughly double (up to principal point offsets).
        assert np.median(ratio) == pytest.approx(2.0, rel=0.05)

    def test_depths_match_camera_space(self, small_scene, camera):
        proj = project_gaussians(small_scene, camera)
        cam_points = camera.transform_points(small_scene.means[proj.ids])
        assert np.allclose(proj.depths, cam_points[:, 2])

    def test_colors_nonnegative(self, small_scene, camera):
        proj = project_gaussians(small_scene, camera)
        assert (proj.colors >= 0).all()


class TestGeometryOnly:
    """``project_geometry`` is ``project_gaussians`` without conic and appearance."""

    def _assert_matches(self, scene, camera, visible_ids=None):
        geometry = project_geometry(scene, camera, visible_ids)
        full = project_gaussians(scene, camera, visible_ids)
        for name in _GEOMETRY_FIELDS:
            assert _same_bits(getattr(geometry, name), getattr(full, name)), name

        # The conic, and the appearance, evaluated on the kept rows only have
        # the bits of evaluating every visible row and dropping the rest.
        visible = np.arange(len(scene)) if visible_ids is None else visible_ids
        kept = np.isin(visible, geometry.ids)
        cov2d = compute_cov2d(
            camera.transform_points(scene.means[visible]),
            scene.covariances()[visible],
            camera.world_to_camera[:3, :3],
            camera,
        )
        conic, valid = conic_from_cov2d(cov2d)
        assert valid[kept].all()
        assert _same_bits(full.conic, conic[kept])
        directions = normalize_directions(scene.means[visible] - camera.position)
        colors = eval_sh_color(scene.sh_coeffs[visible], directions)[kept]
        assert _same_bits(full.colors, colors)
        assert _same_bits(full.opacities, scene.opacities[visible][kept])
        return geometry

    @pytest.mark.parametrize("name", ["family", "horse", "building"])
    def test_matches_projection_along_trajectories(self, name):
        scene = load_scene(name, num_gaussians=500)
        for camera in default_trajectory(name, num_frames=6, speed=3.0, width=200, height=120):
            self._assert_matches(scene, camera, frustum_cull(scene, camera).visible_ids)
            self._assert_matches(scene, camera)

    def test_behind_camera_and_degenerate_splats_are_dropped(self):
        scene = _edge_scene()
        camera = Camera.from_fov(
            width=64, height=48, fov_y_degrees=60.0,
            world_to_camera=look_at(np.array([6.0, 0.0, 0.0]), np.zeros(3)),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            geometry = self._assert_matches(scene, camera)
        assert geometry.ids.tolist() == [0]

    def test_empty_visible_set(self, small_scene, camera):
        geometry = self._assert_matches(small_scene, camera, np.empty(0, dtype=np.int64))
        assert len(geometry) == 0


class TestCov2dOperands:
    def test_matches_transposed_view_product(self):
        """Contiguous matmul operands change the speed, not one bit."""
        scene = load_scene("family", num_gaussians=800)
        for camera in default_trajectory("family", num_frames=8, speed=4.0, width=240, height=135):
            visible = frustum_cull(scene, camera).visible_ids
            cam_points = camera.transform_points(scene.means[visible])
            cov3d = scene.covariances()[visible]
            view_rot = camera.world_to_camera[:3, :3]
            got = compute_cov2d(cam_points, cov3d, view_rot, camera)

            z = np.maximum(cam_points[:, 2], 1e-6)
            lim_x = 1.3 * camera.tan_half_fov_x
            lim_y = 1.3 * camera.tan_half_fov_y
            tx = np.clip(cam_points[:, 0] / z, -lim_x, lim_x) * z
            ty = np.clip(cam_points[:, 1] / z, -lim_y, lim_y) * z
            jac = np.zeros((visible.shape[0], 2, 3))
            jac[:, 0, 0] = camera.fx / z
            jac[:, 0, 2] = -camera.fx * tx / (z * z)
            jac[:, 1, 1] = camera.fy / z
            jac[:, 1, 2] = -camera.fy * ty / (z * z)
            world_cov = view_rot[None, :, :] @ cov3d @ view_rot.T[None, :, :]
            want = jac @ world_cov @ jac.transpose(0, 2, 1)
            want[:, 0, 0] += COV2D_DILATION
            want[:, 1, 1] += COV2D_DILATION
            assert _same_bits(got, want)
