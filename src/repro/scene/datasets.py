"""Scene presets standing in for the paper's benchmark datasets.

The paper evaluates six Tanks-and-Temples scenes (Family, Francis, Horse,
Lighthouse, Playground, Train) plus two Mill-19 aerial scenes (Building,
Rubble) for the large-scale scenario of Fig. 17(a).  Each preset pairs a
:class:`~repro.scene.synthetic.SceneSpec` with a default camera trajectory
matching the capture style (orbits around a subject for T&T, flythroughs for
Mill-19).

``nominal_gaussians`` reflect typical trained-model sizes for these datasets
(order 10^6 for T&T, 10^6-10^7 for Mill-19); ``functional_gaussians`` are the
reduced counts instantiated for pure-Python rendering.  The hardware model
scales measured workload statistics back to the nominal count.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .camera import Camera
from .synthetic import ClusterSpec, SceneSpec, generate_scene
from .trajectory import (
    TrajectoryConfig,
    dolly_trajectory,
    flythrough_trajectory,
    orbit_trajectory,
    pan_trajectory,
    shake_trajectory,
    teleport_trajectory,
)
from .gaussians import GaussianScene

#: Scenes from the Tanks and Temples dataset used across Figs. 3, 5-7, 15-16.
TANKS_AND_TEMPLES: tuple[str, ...] = (
    "family",
    "francis",
    "horse",
    "lighthouse",
    "playground",
    "train",
)

#: Mill-19 aerial scenes used for the large-scale scenario (Fig. 17a).
MILL19: tuple[str, ...] = ("building", "rubble")

_FUNCTIONAL_N = 4000
_FUNCTIONAL_N_LARGE = 7000


def _subject_clusters(
    subject_color: tuple[float, float, float],
    subject_extent: tuple[float, float, float] = (1.2, 1.4, 1.2),
    ground_fraction: float = 0.25,
) -> tuple[ClusterSpec, ...]:
    """Standard T&T composition: a central subject above a ground plane."""
    return (
        ClusterSpec(center=(0.0, 0.5, 0.0), extent=subject_extent, fraction=0.45,
                    base_color=subject_color),
        ClusterSpec(center=(0.0, -1.0, 0.0), extent=(6.0, 0.25, 6.0), fraction=ground_fraction,
                    base_color=(0.45, 0.42, 0.38)),
    )


SCENE_SPECS: dict[str, SceneSpec] = {
    # --- Tanks and Temples -------------------------------------------------
    "family": SceneSpec(
        name="family",
        nominal_gaussians=1_100_000,
        functional_gaussians=_FUNCTIONAL_N,
        extent=9.0,
        clusters=_subject_clusters((0.65, 0.5, 0.4)),
        log_scale_mean=-3.1,
        log_scale_sigma=0.65,
        opaque_fraction=0.65,
        seed=11,
        camera_radius=6.0,
        depth_spread=9.0,
    ),
    "francis": SceneSpec(
        name="francis",
        nominal_gaussians=1_000_000,
        functional_gaussians=_FUNCTIONAL_N,
        extent=10.0,
        clusters=_subject_clusters((0.75, 0.72, 0.66), subject_extent=(0.9, 2.2, 0.9)),
        log_scale_mean=-3.0,
        log_scale_sigma=0.70,
        opaque_fraction=0.62,
        seed=12,
        camera_radius=7.0,
        depth_spread=11.0,
    ),
    "horse": SceneSpec(
        name="horse",
        nominal_gaussians=950_000,
        functional_gaussians=_FUNCTIONAL_N,
        extent=8.0,
        clusters=_subject_clusters((0.35, 0.32, 0.3), subject_extent=(1.6, 1.1, 0.8)),
        log_scale_mean=-3.2,
        log_scale_sigma=0.60,
        opaque_fraction=0.68,
        seed=13,
        camera_radius=5.5,
        depth_spread=8.0,
    ),
    "lighthouse": SceneSpec(
        name="lighthouse",
        nominal_gaussians=1_300_000,
        functional_gaussians=_FUNCTIONAL_N,
        extent=14.0,
        clusters=(
            ClusterSpec(center=(0.0, 2.5, 0.0), extent=(0.9, 3.5, 0.9), fraction=0.35,
                        base_color=(0.8, 0.75, 0.7)),
            ClusterSpec(center=(0.0, -1.0, 0.0), extent=(9.0, 0.3, 9.0), fraction=0.3,
                        base_color=(0.35, 0.45, 0.5)),
        ),
        log_scale_mean=-2.8,
        log_scale_sigma=0.75,
        opaque_fraction=0.58,
        seed=14,
        camera_radius=9.0,
        depth_spread=16.0,
    ),
    "playground": SceneSpec(
        name="playground",
        nominal_gaussians=1_250_000,
        functional_gaussians=_FUNCTIONAL_N,
        extent=12.0,
        clusters=(
            ClusterSpec(center=(-1.5, 0.3, 0.5), extent=(1.5, 1.0, 1.5), fraction=0.25,
                        base_color=(0.7, 0.3, 0.25)),
            ClusterSpec(center=(2.0, 0.2, -1.0), extent=(1.2, 0.9, 1.2), fraction=0.2,
                        base_color=(0.25, 0.45, 0.7)),
            ClusterSpec(center=(0.0, -0.8, 0.0), extent=(8.0, 0.25, 8.0), fraction=0.3,
                        base_color=(0.4, 0.5, 0.3)),
        ),
        log_scale_mean=-3.0,
        log_scale_sigma=0.72,
        opaque_fraction=0.6,
        seed=15,
        camera_radius=8.0,
        depth_spread=13.0,
    ),
    "train": SceneSpec(
        name="train",
        nominal_gaussians=1_050_000,
        functional_gaussians=_FUNCTIONAL_N,
        extent=13.0,
        clusters=(
            ClusterSpec(center=(0.0, 0.4, 0.0), extent=(4.5, 1.0, 1.0), fraction=0.4,
                        base_color=(0.45, 0.35, 0.3)),
            ClusterSpec(center=(0.0, -0.9, 0.0), extent=(9.0, 0.2, 7.0), fraction=0.25,
                        base_color=(0.5, 0.48, 0.45)),
        ),
        log_scale_mean=-2.9,
        log_scale_sigma=0.7,
        opaque_fraction=0.6,
        seed=16,
        camera_radius=8.5,
        depth_spread=14.0,
    ),
    # --- Mill-19 (large-scale aerial) --------------------------------------
    "building": SceneSpec(
        name="building",
        nominal_gaussians=3_800_000,
        functional_gaussians=_FUNCTIONAL_N_LARGE,
        extent=60.0,
        clusters=(
            ClusterSpec(center=(0.0, 6.0, 0.0), extent=(14.0, 8.0, 14.0), fraction=0.45,
                        base_color=(0.6, 0.58, 0.55)),
            ClusterSpec(center=(0.0, -1.0, 0.0), extent=(45.0, 0.6, 45.0), fraction=0.3,
                        base_color=(0.4, 0.42, 0.38)),
        ),
        log_scale_mean=-1.55,
        log_scale_sigma=0.8,
        opaque_fraction=0.55,
        seed=21,
        camera_radius=45.0,
        depth_spread=80.0,
    ),
    "rubble": SceneSpec(
        name="rubble",
        nominal_gaussians=3_400_000,
        functional_gaussians=_FUNCTIONAL_N_LARGE,
        extent=55.0,
        clusters=(
            ClusterSpec(center=(0.0, 1.0, 0.0), extent=(20.0, 3.0, 20.0), fraction=0.5,
                        base_color=(0.55, 0.5, 0.45)),
            ClusterSpec(center=(0.0, -1.0, 0.0), extent=(40.0, 0.5, 40.0), fraction=0.25,
                        base_color=(0.45, 0.43, 0.4)),
        ),
        log_scale_mean=-1.65,
        log_scale_sigma=0.78,
        opaque_fraction=0.55,
        seed=22,
        camera_radius=40.0,
        depth_spread=70.0,
    ),
}


def scene_spec(name: str) -> SceneSpec:
    """Look up a scene preset by name (case-insensitive)."""
    key = name.lower()
    if key not in SCENE_SPECS:
        raise KeyError(f"unknown scene {name!r}; options: {sorted(SCENE_SPECS)}")
    return SCENE_SPECS[key]


def load_scene(name: str, num_gaussians: int | None = None) -> GaussianScene:
    """The synthetic scene registered under ``name`` (case-insensitive).

    Generated presets are memoized per process on the lower-cased name and
    the count, so every caller that asks for the same scene shares one
    instance and its cached covariances.  That shared scene is read-only:
    writing to its arrays or to :meth:`GaussianScene.covariances` raises
    ``ValueError``.  :meth:`GaussianScene.subset` still returns a writeable
    copy.
    """
    spec = scene_spec(name)
    if num_gaussians is None:
        num_gaussians = spec.functional_gaussians
    return _generated_scene(name.lower(), num_gaussians)


@lru_cache(maxsize=16)
def _generated_scene(key: str, num_gaussians: int) -> GaussianScene:
    scene = generate_scene(SCENE_SPECS[key], num_gaussians=num_gaussians)
    for array in (
        scene.means,
        scene.scales,
        scene.quats,
        scene.opacities,
        scene.sh_coeffs,
        scene.covariances(),
    ):
        array.flags.writeable = False
    return scene


#: Trajectory archetypes :func:`archetype_trajectory` can build for any scene.
TRAJECTORY_ARCHETYPES: tuple[str, ...] = (
    "orbit",
    "dolly",
    "pan",
    "flythrough",
    "shake",
    "teleport",
)


def archetype_trajectory(
    name: str,
    archetype: str,
    num_frames: int = 60,
    speed: float = 1.0,
    width: int = 1280,
    height: int = 720,
) -> list[Camera]:
    """Build a named camera-motion archetype sized to a scene preset.

    Every archetype is parameterized by the preset's ``camera_radius`` /
    ``extent`` / ``depth_spread`` so the same motion style transfers across
    scenes: ``orbit`` and ``flythrough`` reproduce the default captures,
    ``dolly``/``pan`` isolate translation and rotation, and
    ``shake``/``teleport`` are abrupt-motion stress cases (tremor jitter and
    zero-coherence viewpoint jumps).
    """
    spec = scene_spec(name)
    config = TrajectoryConfig(
        num_frames=num_frames, speed=speed, width=width, height=height
    )
    radius = spec.camera_radius
    far = spec.depth_spread * 20.0
    center = np.zeros(3)
    if archetype == "orbit":
        return orbit_trajectory(
            center=center,
            radius=radius,
            config=config,
            height_offset=radius * 0.2,
            far=far,
        )
    if archetype == "dolly":
        return dolly_trajectory(
            start=np.array([radius * 1.6, radius * 0.25, 0.0]),
            end=np.array([radius * 0.5, radius * 0.1, 0.0]),
            target=center,
            config=config,
            far=far,
        )
    if archetype == "pan":
        return pan_trajectory(
            eye=np.array([radius, radius * 0.2, 0.0]),
            initial_target=center,
            config=config,
            far=far,
        )
    if archetype == "flythrough":
        altitude = spec.extent * 0.5
        waypoints = np.array(
            [
                [-radius, altitude, -radius],
                [radius, altitude, -radius * 0.3],
                [radius * 0.4, altitude * 0.8, radius],
                [-radius, altitude, radius * 0.5],
            ]
        )
        return flythrough_trajectory(waypoints, config, far=max(far, 2000.0))
    if archetype == "shake":
        return shake_trajectory(
            eye=np.array([radius, radius * 0.2, 0.0]),
            target=center,
            config=config,
            amplitude=radius * 0.03,
            far=far,
        )
    if archetype == "teleport":
        return teleport_trajectory(
            center=center,
            radius=radius,
            config=config,
            hold_frames=2,
            height_offset=radius * 0.2,
            far=far,
        )
    raise KeyError(
        f"unknown trajectory archetype {archetype!r}; options: {list(TRAJECTORY_ARCHETYPES)}"
    )


def default_trajectory(
    name: str,
    num_frames: int = 60,
    speed: float = 1.0,
    width: int = 1280,
    height: int = 720,
) -> list[Camera]:
    """Build the default camera trajectory for a scene preset.

    Tanks-and-Temples scenes use a slow inward-looking orbit (matching the
    hand-held circling captures); Mill-19 scenes use an aerial flythrough.
    """
    archetype = "flythrough" if scene_spec(name).name in MILL19 else "orbit"
    return archetype_trajectory(
        name, archetype, num_frames=num_frames, speed=speed, width=width, height=height
    )
