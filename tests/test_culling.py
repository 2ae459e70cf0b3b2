"""Unit tests for frustum culling."""

import numpy as np
import pytest

from repro.pipeline.culling import FRUSTUM_MARGIN, CullingResult, frustum_cull
from repro.scene import Camera, GaussianScene, look_at


def _point_scene(points) -> GaussianScene:
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    quats = np.zeros((n, 4))
    quats[:, 0] = 1.0
    return GaussianScene(
        means=points,
        scales=np.full((n, 3), 1e-3),
        quats=quats,
        opacities=np.full(n, 0.9),
        sh_coeffs=np.zeros((n, 1, 3)),
    )


def _row_max_cull(scene: GaussianScene, camera: Camera) -> np.ndarray:
    """Culling with the pad as ``scales.max(axis=1)``: the oracle of the column form."""
    cam_points = camera.transform_points(scene.means)
    z = cam_points[:, 2]
    pad = 3.0 * scene.scales.max(axis=1)
    in_depth = (z + pad > camera.near) & (z - pad < camera.far)
    safe_z = np.maximum(z, camera.near)
    lim_x = FRUSTUM_MARGIN * camera.tan_half_fov_x * safe_z + pad
    lim_y = FRUSTUM_MARGIN * camera.tan_half_fov_y * safe_z + pad
    in_lateral = (np.abs(cam_points[:, 0]) <= lim_x) & (np.abs(cam_points[:, 1]) <= lim_y)
    return np.flatnonzero(in_depth & in_lateral)


@pytest.fixture()
def forward_camera():
    return Camera.from_fov(
        width=100, height=100, fov_y_degrees=90.0,
        world_to_camera=look_at(np.zeros(3), np.array([0.0, 0.0, 10.0])),
        near=0.5, far=100.0,
    )


class TestFrustumCull:
    def test_keeps_points_in_front(self, forward_camera):
        scene = _point_scene([[0, 0, 5], [0, 0, 50]])
        result = frustum_cull(scene, forward_camera)
        assert result.num_visible == 2

    def test_discards_behind_camera(self, forward_camera):
        scene = _point_scene([[0, 0, -5], [0, 0, 5]])
        result = frustum_cull(scene, forward_camera)
        assert list(result.visible_ids) == [1]

    def test_discards_beyond_far(self, forward_camera):
        scene = _point_scene([[0, 0, 500]])
        assert frustum_cull(scene, forward_camera).num_visible == 0

    def test_discards_far_lateral(self, forward_camera):
        # 90 degree fov: at z=5 the frustum half-width is 5; 1.3x margin ~ 6.5.
        scene = _point_scene([[20, 0, 5], [3, 0, 5]])
        result = frustum_cull(scene, forward_camera)
        assert list(result.visible_ids) == [1]

    def test_margin_keeps_boundary_points(self, forward_camera):
        scene = _point_scene([[5.8, 0, 5]])  # outside strict frustum, inside 1.3x
        assert frustum_cull(scene, forward_camera).num_visible == 1

    def test_large_gaussian_near_boundary_kept(self, forward_camera):
        scene = _point_scene([[8.0, 0, 5]])
        strict = frustum_cull(scene, forward_camera)
        assert strict.num_visible == 0
        fat = GaussianScene(
            means=scene.means,
            scales=np.full((1, 3), 1.0),  # 3-sigma pad = 3 units
            quats=scene.quats,
            opacities=scene.opacities,
            sh_coeffs=scene.sh_coeffs,
        )
        assert frustum_cull(fat, forward_camera).num_visible == 1

    def test_rejects_margin_below_one(self, forward_camera):
        scene = _point_scene([[0, 0, 5]])
        with pytest.raises(ValueError):
            frustum_cull(scene, forward_camera, margin=0.5)

    def test_cull_rate(self, forward_camera):
        scene = _point_scene([[0, 0, 5], [0, 0, -5], [0, 0, 500], [0, 0, 2]])
        result = frustum_cull(scene, forward_camera)
        assert result.cull_rate == pytest.approx(0.5)

    def test_empty_scene(self, forward_camera):
        result = frustum_cull(_point_scene(np.zeros((0, 3))), forward_camera)
        assert result.num_visible == 0
        assert result.cull_rate == 0.0

    def test_visible_ids_sorted(self, small_scene, camera):
        result = frustum_cull(small_scene, camera)
        assert isinstance(result, CullingResult)
        assert (np.diff(result.visible_ids) > 0).all()

    def test_column_max_pad_matches_row_max(self, forward_camera):
        # Points scattered across the inflated frustum's walls and the near
        # and far planes, where the pad decides.  Each row's largest scale
        # sits in a different column, some tied, and one row each holds a
        # NaN and an inf.
        rng = np.random.default_rng(7)
        n = 600
        z = rng.choice([0.5, 5.0, 100.0], n) + rng.normal(0.0, 1.0, n)
        wall = FRUSTUM_MARGIN * np.maximum(z, forward_camera.near)
        x = wall * rng.choice([-1.0, 1.0], n) + rng.normal(0.0, 1.0, n)
        y = rng.uniform(-1.0, 1.0, n) * wall
        scales = rng.uniform(0.01, 0.5, (n, 3))
        scales[:30, 1] = scales[:30, 0]
        scales[30:60, 2] = scales[30:60, 1]
        scales[60:90] = scales[60:90, :1]
        # A NaN pad culls a splat at the frustum's center; an inf pad keeps
        # one far outside it.
        scales[90, 1] = np.nan
        scales[91, 2] = np.inf
        points = np.column_stack([x, y, z])
        points[90] = [0.0, 0.0, 5.0]
        points[91] = [50.0, 0.0, 5.0]
        scene = _point_scene(points)
        scene = GaussianScene(
            means=scene.means, scales=scales, quats=scene.quats,
            opacities=scene.opacities, sh_coeffs=scene.sh_coeffs,
        )
        got = frustum_cull(scene, forward_camera).visible_ids
        np.testing.assert_array_equal(got, _row_max_cull(scene, forward_camera))
        # The pad decides: the same points with tiny scales keep fewer.
        assert 90 not in got and 91 in got
        assert frustum_cull(_point_scene(scene.means), forward_camera).num_visible < got.size
