"""Stress test: panning, the hardest motion for reuse-and-update sorting.

A pure pan changes the visible tile set quickly while depths barely move —
the opposite regime from the orbit captures.  It stresses insertion and
lazy deletion (the MSU+ path) rather than reordering; Neo must stay correct
and keep churn bounded.
"""

import numpy as np
import pytest

from repro.core import NeoSortStrategy
from repro.metrics import psnr
from repro.pipeline import Renderer
from repro.scene import TrajectoryConfig, load_scene, pan_trajectory


@pytest.fixture(scope="module")
def pan_run():
    scene = load_scene("playground", num_gaussians=1200)
    config = TrajectoryConfig(num_frames=8, width=192, height=108)
    cameras = pan_trajectory(
        eye=np.array([8.0, 1.5, 0.0]),
        initial_target=np.zeros(3),
        config=config,
        degrees_per_frame=2.0,
    )
    neo = NeoSortStrategy()
    records = Renderer(scene, strategy=neo).render_sequence(cameras)
    reference = Renderer(scene).render_sequence(cameras)
    return neo, records, reference


class TestPanStress:
    def test_quality_holds_under_pan(self, pan_run):
        _, records, reference = pan_run
        for ref, rec in zip(reference[1:], records[1:]):
            assert psnr(ref.image, rec.image) > 40.0

    def test_churn_dominated_by_membership_not_reordering(self, pan_run):
        neo, _, _ = pan_run
        # Panning moves tiles across the screen: per-frame incoming counts
        # exceed the orbit regime but the machinery keeps up.
        incoming = [fs.incoming_entries for fs in neo.frame_stats[2:]]
        deleted = [fs.deleted_entries for fs in neo.frame_stats[2:]]
        assert max(incoming) > 0
        assert max(deleted) > 0
        # Insertion and deletion roughly balance in steady state (the view
        # gains about as many pairs as it loses each frame).
        assert np.mean(incoming) == pytest.approx(np.mean(deleted), rel=0.8)

    def test_tables_never_accumulate_garbage(self, pan_run):
        neo, records, _ = pan_run
        total_table = len(neo.table)
        current_pairs = records[-1].stats.num_pairs
        # Lazy deletion lags one frame, so the tables may exceed the live
        # pair count slightly, but must not grow unboundedly.
        assert total_table < 1.5 * current_pairs + 100
