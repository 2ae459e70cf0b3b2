"""Tests for the accuracy-restoration experiment (section 4.3)."""

import numpy as np
import pytest

from repro.core.strategies import NeoSortStrategy
from repro.experiments import execute_plan, recovery
from repro.pipeline.renderer import Renderer
from repro.pipeline.sorting import order_quality
from repro.scene.datasets import load_scene


@pytest.fixture(scope="module")
def result():
    return execute_plan(
        recovery.plan(num_frames=12, jump_frame=5, num_gaussians=1200, width=160, height=90)
    )


class TestJumpTrajectory:
    def test_jump_is_discontinuous(self):
        cameras = recovery.jump_trajectory(
            "family", num_frames=10, jump_frame=4, jump_degrees=10.0,
            width=160, height=90,
        )
        steps = [
            np.linalg.norm(b.position - a.position)
            for a, b in zip(cameras, cameras[1:])
        ]
        # The jump step dwarfs the regular orbit step.
        assert steps[3] > 5 * np.median(steps)


class TestRecovery:
    def test_incoming_burst_at_jump(self, result):
        rows = result.rows
        jump = next(r for r in rows if r["is_jump"])
        regular = [r["incoming"] for r in rows if not r["is_jump"] and r["frame"] > 0]
        assert jump["incoming"] > 4 * max(regular)

    def test_quality_recovers(self, result):
        assert recovery.recovery_frames(result, threshold_db=45.0) <= 3

    def test_no_catastrophic_popping(self, result):
        assert min(r["psnr_vs_exact"] for r in result.rows[1:]) > 35.0

    def test_validation(self):
        with pytest.raises(ValueError):
            recovery.plan(num_frames=6, jump_frame=5)


class TestMeanOrderQuality:
    def test_mean_order_quality_matches_per_tile_formula(self):
        # The segmented pass must equal the per-tile order_quality mean bit
        # for bit, on a Neo sequence whose small chunks and camera jump leave
        # tiles unsorted.
        scene = load_scene("family", num_gaussians=1000)
        cameras = recovery.jump_trajectory("family", 8, 4, 20.0, 128, 72)
        strategy = NeoSortStrategy(chunk_size=8)
        records = Renderer(scene, strategy=strategy).render_sequence(cameras)
        qualities = []
        for record in records:
            tiles = record.sorted_tiles
            scores = [
                order_quality(depths)
                for tile in range(tiles.num_tiles)
                if (depths := tiles.depths_for(tile)).shape[0] > 1
            ]
            expected = float(np.mean(scores)) if scores else 1.0
            assert recovery.mean_order_quality(record) == expected
            qualities.append(expected)
        assert min(qualities) < 1.0
