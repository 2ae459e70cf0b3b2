"""Table 2 — rendering-quality comparison: original 3DGS vs Neo.

The claim: Neo's reuse-and-update sorting degrades quality imperceptibly
(PSNR delta <= 0.1 dB, LPIPS delta <= 0.001).  The paper measures both
pipelines against captured ground-truth photographs; synthetic scenes have
no photographs, so both pipelines are measured against a golden reference
rendered with exact sorting at 2x supersampling and box-downsampled.  Both
pipelines then sit tens of dB away from the reference for the *same*
reason (finite sampling), and the table's quantity of interest — the delta
Neo's approximate ordering introduces on top — is preserved.
"""

from __future__ import annotations

import numpy as np

from ..core.strategies import NeoSortStrategy
from ..metrics.image import lpips_proxy, psnr
from ..pipeline.renderer import ExactSortStrategy, Renderer
from ..scene.datasets import TANKS_AND_TEMPLES, default_trajectory, load_scene
from .engine import ExperimentPlan
from .runner import ExperimentResult

DESCRIPTION = "Quality: original 3DGS vs Neo (PSNR dB / LPIPS proxy)"


def _golden_frames(scene, cameras) -> list[np.ndarray]:
    """Golden reference: exact sorting at 2x resolution, box-downsampled."""
    golden = []
    renderer = Renderer(scene, strategy=ExactSortStrategy())
    for i, camera in enumerate(cameras):
        hi_cam = camera.with_resolution(camera.width * 2, camera.height * 2)
        record = renderer.render(hi_cam, frame_index=i)
        image = record.image
        down = 0.25 * (
            image[0::2, 0::2] + image[1::2, 0::2] + image[0::2, 1::2] + image[1::2, 1::2]
        )
        golden.append(down)
    return golden


def plan(
    scenes=TANKS_AND_TEMPLES,
    num_frames: int = 5,
    width: int = 224,
    height: int = 126,
    num_gaussians: int = 2500,
) -> ExperimentPlan:
    """No simulation cells: the work is golden / exact / Neo renders."""

    def aggregate(_cells) -> ExperimentResult:
        return _measure(scenes, num_frames, width, height, num_gaussians)

    return ExperimentPlan("table2", DESCRIPTION, (), aggregate)


def _measure(scenes, num_frames, width, height, num_gaussians) -> ExperimentResult:
    result = ExperimentResult(name="table2", description=DESCRIPTION)
    for scene_name in scenes:
        scene = load_scene(scene_name, num_gaussians=num_gaussians)
        cameras = default_trajectory(
            scene_name, num_frames=num_frames, width=width, height=height
        )
        golden = _golden_frames(scene, cameras)

        exact = Renderer(scene, strategy=ExactSortStrategy()).render_sequence(cameras)
        neo = Renderer(scene, strategy=NeoSortStrategy()).render_sequence(cameras)

        def _mean_quality(records):
            scores_psnr = [psnr(g, r.image) for g, r in zip(golden, records)]
            scores_lpips = [lpips_proxy(g, r.image) for g, r in zip(golden, records)]
            return float(np.mean(scores_psnr)), float(np.mean(scores_lpips))

        base_psnr, base_lpips = _mean_quality(exact)
        neo_psnr, neo_lpips = _mean_quality(neo)
        result.rows.append(
            {
                "scene": scene_name,
                "psnr_3dgs": base_psnr,
                "lpips_3dgs": base_lpips,
                "psnr_neo": neo_psnr,
                "lpips_neo": neo_lpips,
                "psnr_delta": base_psnr - neo_psnr,
                "lpips_delta": neo_lpips - base_lpips,
            }
        )
    return result
