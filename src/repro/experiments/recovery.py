"""Accuracy restoration after abrupt camera motion (paper section 4.3).

Dynamic Partial Sorting may need a few frames to re-establish exact ordering
after a large viewpoint change; the paper argues this is self-correcting
("positive feedback loop") and costs negligible quality.  This experiment
injects a camera jump mid-sequence and tracks Neo's per-frame quality and
ordering error against exact sorting: quality dips at the jump and recovers
within a handful of frames without any full re-sort.
"""

from __future__ import annotations

import numpy as np

from ..core.strategies import NeoSortStrategy
from ..metrics.image import psnr
from ..pipeline.renderer import Renderer
from ..scene.camera import Camera
from ..scene.trajectory import TrajectoryConfig, orbit_trajectory
from ..scene.datasets import load_scene, scene_spec
from .engine import ExperimentPlan
from .runner import ExperimentResult

DESCRIPTION = "Accuracy restoration after an abrupt camera jump"


def jump_trajectory(
    scene_name: str,
    num_frames: int,
    jump_frame: int,
    jump_degrees: float,
    width: int,
    height: int,
) -> list[Camera]:
    """A gentle orbit with one abrupt angular jump at ``jump_frame``."""
    spec = scene_spec(scene_name)
    config = TrajectoryConfig(num_frames=num_frames, width=width, height=height)
    base = orbit_trajectory(
        np.zeros(3),
        radius=spec.camera_radius,
        config=config,
        height_offset=spec.camera_radius * 0.2,
        far=spec.depth_spread * 20.0,
    )
    # Replay the orbit with the post-jump frames advanced by jump_degrees.
    shifted_config = TrajectoryConfig(
        num_frames=num_frames + int(jump_degrees / 0.5), width=width, height=height
    )
    shifted = orbit_trajectory(
        np.zeros(3),
        radius=spec.camera_radius,
        config=shifted_config,
        height_offset=spec.camera_radius * 0.2,
        far=spec.depth_spread * 20.0,
    )
    offset = int(jump_degrees / 0.5)
    return base[:jump_frame] + shifted[jump_frame + offset : num_frames + offset]


def mean_order_quality(record) -> float:
    """Mean adjacent-pair depth-sortedness across tiles with >= 2 entries.

    One segmented pass over the flat depth stream: each tile scores
    :func:`~repro.pipeline.sorting.order_quality` (the share of its adjacent
    pairs in non-decreasing depth order), and the scores are averaged in
    tile order.
    """
    sorted_tiles = record.sorted_tiles
    stream = sorted_tiles.stream
    counts = stream.counts()
    scored = counts >= 2
    if not np.any(scored):
        return 1.0
    tile_of = stream.tile_of()
    in_order = (np.diff(sorted_tiles.depths) >= 0) & (tile_of[1:] == tile_of[:-1])
    good = np.bincount(tile_of[:-1][in_order], minlength=stream.num_tiles)
    return float(np.mean(good[scored] / (counts[scored] - 1)))


def plan(
    scene_name: str = "family",
    num_frames: int = 16,
    jump_frame: int = 6,
    jump_degrees: float = 10.0,
    width: int = 224,
    height: int = 126,
    num_gaussians: int = 2000,
) -> ExperimentPlan:
    """No simulation cells: the work is a pair of functional renders.

    Rows carry per-frame PSNR-vs-exact and ordering quality around the jump.
    """
    if not 0 < jump_frame < num_frames - 3:
        raise ValueError("jump_frame must leave room to observe recovery")

    def aggregate(_cells) -> ExperimentResult:
        scene = load_scene(scene_name, num_gaussians=num_gaussians)
        cameras = jump_trajectory(
            scene_name, num_frames, jump_frame, jump_degrees, width, height
        )

        reference = Renderer(scene).render_sequence(cameras)
        neo = NeoSortStrategy()
        records = Renderer(scene, strategy=neo).render_sequence(cameras)

        result = ExperimentResult(
            name="recovery",
            description=f"Accuracy restoration after a {jump_degrees:g} deg camera jump",
        )
        for i, (ref, rec) in enumerate(zip(reference, records)):
            result.rows.append(
                {
                    "frame": i,
                    "is_jump": i == jump_frame,
                    "psnr_vs_exact": psnr(ref.image, rec.image),
                    "order_quality": mean_order_quality(rec),
                    "incoming": neo.frame_stats[i].incoming_entries,
                }
            )
        return result

    return ExperimentPlan("recovery", DESCRIPTION, (), aggregate)


def recovery_frames(result: ExperimentResult, threshold_db: float = 45.0) -> int:
    """Frames after the jump until PSNR re-crosses ``threshold_db``.

    Returns the number of post-jump frames below the threshold (0 means the
    jump was absorbed immediately).
    """
    jump = next(r["frame"] for r in result.rows if r["is_jump"])
    below = 0
    for row in result.rows[jump:]:
        if row["psnr_vs_exact"] < threshold_db:
            below += 1
        else:
            break
    return below
