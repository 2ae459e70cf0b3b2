"""Frustum culling: discard Gaussians invisible from the camera (stage 1).

Culling happens in camera space on the Gaussian centers, padded by each
Gaussian's world-space extent so splats straddling the frustum boundary
survive.  This mirrors the conservative culling of reference 3DGS, which
keeps a Gaussian if its center lies inside a slightly inflated frustum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..scene.camera import Camera
from ..scene.gaussians import GaussianScene

#: Frustum inflation factor; reference 3DGS keeps centers within 1.3x the
#: frustum tangents to tolerate splat extent.
FRUSTUM_MARGIN = 1.3


@dataclass(frozen=True)
class CullingResult:
    """Outcome of frustum culling.

    Attributes
    ----------
    visible_ids:
        Indices of surviving Gaussians, in scene order.
    num_tested:
        Total Gaussians tested (scene size).
    """

    visible_ids: np.ndarray
    num_tested: int

    @property
    def num_visible(self) -> int:
        """Number of Gaussians that survived culling."""
        return int(self.visible_ids.shape[0])

    @property
    def cull_rate(self) -> float:
        """Fraction of Gaussians discarded."""
        if self.num_tested == 0:
            return 0.0
        return 1.0 - self.num_visible / self.num_tested


def frustum_cull(
    scene: GaussianScene,
    camera: Camera,
    margin: float = FRUSTUM_MARGIN,
    pad_sigmas: float = 3.0,
) -> CullingResult:
    """Return the Gaussians whose padded centers fall inside the view frustum.

    Parameters
    ----------
    margin:
        Multiplier on the frustum tangents (>1 inflates the frustum).
    pad_sigmas:
        World-space padding as a multiple of each Gaussian's largest scale,
        so large splats near the boundary are retained.
    """
    if margin < 1.0:
        raise ValueError("margin must be >= 1.0 (conservative culling)")
    cam_points = camera.transform_points(scene.means)
    z = cam_points[:, 2]
    # The column-wise maximum has the bits (and the NaN propagation) of
    # ``scales.max(axis=1)`` at a small share of that reduction's cost.
    scales = scene.scales
    pad = pad_sigmas * np.maximum(np.maximum(scales[:, 0], scales[:, 1]), scales[:, 2])

    in_depth = (z + pad > camera.near) & (z - pad < camera.far)
    # Lateral test against the inflated frustum planes: |x| <= tan * z + pad.
    safe_z = np.maximum(z, camera.near)
    lim_x = margin * camera.tan_half_fov_x * safe_z + pad
    lim_y = margin * camera.tan_half_fov_y * safe_z + pad
    in_lateral = (np.abs(cam_points[:, 0]) <= lim_x) & (np.abs(cam_points[:, 1]) <= lim_y)

    visible = np.flatnonzero(in_depth & in_lateral)
    return CullingResult(visible_ids=visible, num_tested=len(scene))
