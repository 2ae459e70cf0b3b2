"""Feature extraction: project 3D Gaussians to screen space (pipeline stage 2).

Implements the EWA splatting approximation used by 3DGS: each 3D Gaussian
``(mu, Sigma)`` maps to a 2D Gaussian ``(mu', Sigma')`` on the image plane via
the camera transform and the Jacobian of the perspective projection, and its
view-dependent color is evaluated from spherical harmonics.

:func:`project_geometry` is the geometric half alone (screen position,
radius, depth): everything tiling and sorting read, and all the hardware
workload model captures.  :func:`project_gaussians` is that function plus
what only the rasterizer reads: the conic (inverse 2D covariance) and the
appearance it blends (SH colors, opacities).  Both run one private
projection, which keeps a Gaussian by its 2D covariance's determinant
without inverting it, so only :func:`project_gaussians` inverts, and only
the kept rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..scene.camera import Camera
from ..scene.gaussians import GaussianScene
from ..scene.sh import eval_sh_color, normalize_directions

#: 2D covariance regularizer, matching the 0.3 px dilation of reference 3DGS.
COV2D_DILATION = 0.3

#: Number of standard deviations covered by a splat's bounding radius.
RADIUS_SIGMAS = 3.0

#: Smallest 2D covariance determinant taken as positive definite.
_MIN_DET = 1e-12


@dataclass
class ProjectedGeometry:
    """Screen-space geometry of the Gaussians kept by feature extraction.

    All arrays are aligned: row ``i`` describes the same visible Gaussian.
    This is everything tiling, sorting and the workload model read.

    Attributes
    ----------
    ids:
        Indices into the source :class:`GaussianScene` (global Gaussian IDs).
    means2d:
        ``(m, 2)`` pixel-space centers.
    depths:
        ``(m,)`` camera-space z used as the sort key.
    radii:
        ``(m,)`` conservative pixel radii (3 sigma of the major axis).
    """

    ids: np.ndarray
    means2d: np.ndarray
    depths: np.ndarray
    radii: np.ndarray

    def __len__(self) -> int:
        return self.ids.shape[0]


@dataclass
class ProjectedGaussians(ProjectedGeometry):
    """Screen-space Gaussians produced by feature extraction.

    :class:`ProjectedGeometry` plus what the rasterizer alone reads.

    Attributes
    ----------
    conic:
        ``(m, 3)`` upper-triangular entries ``(a, b, c)`` of the inverse 2D
        covariance (dilated), the form the rasterizer evaluates.
    colors:
        ``(m, 3)`` RGB colors from SH evaluation.
    opacities:
        ``(m,)`` opacity values.
    """

    conic: np.ndarray
    colors: np.ndarray
    opacities: np.ndarray


def compute_cov2d(
    cam_points: np.ndarray,
    cov3d: np.ndarray,
    view_rot: np.ndarray,
    camera: Camera,
) -> np.ndarray:
    """EWA projection of 3D covariances to screen space.

    ``Sigma' = J W Sigma W^T J^T`` where ``W`` is the world-to-camera rotation
    and ``J`` the local affine approximation (Jacobian) of the perspective
    projection at each Gaussian center.
    """
    n = cam_points.shape[0]
    x, y = cam_points[:, 0], cam_points[:, 1]
    z = np.maximum(cam_points[:, 2], 1e-6)

    # Clamp x/z, y/z to 1.3x the frustum tangent, as in reference 3DGS, to
    # keep the linearization stable for Gaussians near the frustum edge.
    lim_x = 1.3 * camera.tan_half_fov_x
    lim_y = 1.3 * camera.tan_half_fov_y
    tx = np.clip(x / z, -lim_x, lim_x) * z
    ty = np.clip(y / z, -lim_y, lim_y) * z

    jac = np.zeros((n, 2, 3))
    jac[:, 0, 0] = camera.fx / z
    jac[:, 0, 2] = -camera.fx * tx / (z * z)
    jac[:, 1, 1] = camera.fy / z
    jac[:, 1, 2] = -camera.fy * ty / (z * z)

    # ``W Sigma W^T`` as two 2-D GEMMs over every Gaussian at once, in the
    # stacked product's order: ``W Sigma`` as (3, 3) @ (3, 3n), whose (3n, 3)
    # rows then take ``@ W^T``.  Each keeps the stacked product's 3-term
    # reductions, so the bits are the same, for well under its per-matrix
    # cost.  The result is laid out (3, n, 3), and the stacked Jacobian
    # product reads its (n, 3, 3) view at full speed, since each matrix row
    # is contiguous.  The Jacobian's transpose is not: a transposed right
    # operand sends the stacked matmul down a strided loop at about twice
    # the cost, so it is copied.
    rows = np.ascontiguousarray(cov3d.transpose(1, 0, 2)).reshape(3, 3 * n)
    world_cov = (
        ((view_rot @ rows).reshape(3 * n, 3) @ np.ascontiguousarray(view_rot.T))
        .reshape(3, n, 3)
        .transpose(1, 0, 2)
    )
    cov2d = jac @ world_cov @ np.ascontiguousarray(jac.transpose(0, 2, 1))
    cov2d[:, 0, 0] += COV2D_DILATION
    cov2d[:, 1, 1] += COV2D_DILATION
    return cov2d


def conic_from_cov2d(cov2d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert 2D covariances to conic form and report validity.

    Returns ``(conic, valid)`` where ``conic`` holds ``(a, b, c)`` such that
    the splat falloff is ``exp(-0.5 (a dx^2 + 2 b dx dy + c dy^2))``, and
    ``valid`` flags Gaussians with a positive-definite covariance.
    """
    a = cov2d[:, 0, 0]
    b = cov2d[:, 0, 1]
    c = cov2d[:, 1, 1]
    det = _det(cov2d)
    valid = det > _MIN_DET
    inv_det = np.where(valid, 1.0 / np.where(valid, det, 1.0), 0.0)
    conic = np.stack([c * inv_det, -b * inv_det, a * inv_det], axis=1)
    return conic, valid


def _det(cov2d: np.ndarray) -> np.ndarray:
    """Determinants of 2D covariances."""
    return cov2d[:, 0, 0] * cov2d[:, 1, 1] - cov2d[:, 0, 1] * cov2d[:, 0, 1]


def splat_radii(cov2d: np.ndarray) -> np.ndarray:
    """Conservative pixel radius (3 sigma of the major eigenvalue)."""
    a = cov2d[:, 0, 0]
    b = cov2d[:, 0, 1]
    c = cov2d[:, 1, 1]
    mid = 0.5 * (a + c)
    disc = np.sqrt(np.maximum(mid * mid - (a * c - b * b), 0.0))
    lambda_max = mid + disc
    return np.ceil(RADIUS_SIGMAS * np.sqrt(np.maximum(lambda_max, 0.0)))


def _project(
    scene: GaussianScene,
    camera: Camera,
    visible_ids: np.ndarray | None,
) -> tuple[ProjectedGeometry, np.ndarray, np.ndarray]:
    """``(geometry, cov2d, keep)``: kept geometry, all 2D covariances, kept mask.

    A Gaussian is kept if its 2D covariance is positive definite (the
    determinant test of :func:`conic_from_cov2d`), its radius is positive
    and it lies beyond the near plane.
    """
    if visible_ids is None:
        visible_ids = np.arange(len(scene))
    visible_ids = np.asarray(visible_ids, dtype=np.int64)
    cam_points = camera.transform_points(scene.means[visible_ids])
    view_rot = camera.world_to_camera[:3, :3]

    cov3d = scene.covariances()[visible_ids]
    cov2d = compute_cov2d(cam_points, cov3d, view_rot, camera)
    radii = splat_radii(cov2d)

    keep = (_det(cov2d) > _MIN_DET) & (radii > 0) & (cam_points[:, 2] > camera.near)
    geometry = ProjectedGeometry(
        ids=visible_ids[keep],
        means2d=camera.project(cam_points)[keep],
        depths=cam_points[:, 2][keep],
        radii=radii[keep],
    )
    return geometry, cov2d, keep


def project_geometry(
    scene: GaussianScene,
    camera: Camera,
    visible_ids: np.ndarray | None = None,
) -> ProjectedGeometry:
    """Project the Gaussians visible from ``camera`` to screen-space geometry.

    No conic and no appearance is evaluated: this is the whole of feature
    extraction that tiling, sorting and the workload model depend on.
    ``visible_ids`` is as in :func:`project_gaussians`.
    """
    return _project(scene, camera, visible_ids)[0]


def project_gaussians(
    scene: GaussianScene,
    camera: Camera,
    visible_ids: np.ndarray | None = None,
) -> ProjectedGaussians:
    """Run feature extraction for the Gaussians visible from ``camera``.

    :func:`project_geometry`, plus each kept Gaussian's conic, SH color and
    opacity.  The conic is elementwise in the 2D covariance, so inverting
    the kept rows alone gives the bits of inverting every row and dropping
    the rest.

    Parameters
    ----------
    scene:
        Source scene.
    visible_ids:
        Indices of Gaussians that survived frustum culling.  ``None`` means
        project everything (culling is then implied by downstream radii).
    """
    g, cov2d, keep = _project(scene, camera, visible_ids)
    directions = normalize_directions(scene.means[g.ids] - camera.position[None, :])
    return ProjectedGaussians(
        **vars(g),
        conic=conic_from_cov2d(cov2d[keep])[0],
        colors=eval_sh_color(scene.sh_coeffs[g.ids], directions),
        opacities=scene.opacities[g.ids],
    )
