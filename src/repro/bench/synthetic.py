"""Deterministic synthetic workloads shared by benchmarks and CI smoke.

The pipeline benches render a reduced synthetic scene through the real
functional pipeline; the system-model bench instead synthesizes paper-scale
:class:`~repro.hw.workload.FrameWorkload` trajectories analytically (no
scene capture), isolating the simulation core being timed.
"""

from __future__ import annotations

import numpy as np

from ..hw.workload import FrameWorkload

#: Long-trajectory length for the full benches; roughly 3x the paper's
#: 60-frame sequences.
NUM_FRAMES = 200


def synthetic_workloads(num_frames: int = NUM_FRAMES, tile: int = 16) -> list[FrameWorkload]:
    """A deterministic paper-scale trajectory, synthesized analytically.

    Counts drift sinusoidally around Mill-19-like magnitudes so frame 0's
    cold start, churn terms, and early-termination clamping all exercise.
    """
    rng = np.random.default_rng(20260730)
    width, height = 2560, 1440
    num_tiles = (width // tile) * (height // tile)
    workloads = []
    for i in range(num_frames):
        pairs = 3.0e6 * (1.0 + 0.2 * np.sin(i / 9.0)) + float(rng.integers(0, 10_000))
        incoming = 0.0 if i == 0 else pairs * (0.05 + 0.02 * np.cos(i / 5.0))
        nonempty = int(num_tiles * 0.9)
        workloads.append(
            FrameWorkload(
                frame_index=i,
                width=width,
                height=height,
                tile_size=tile,
                num_gaussians=2.0e6,
                visible=1.1e6 * (1.0 + 0.1 * np.sin(i / 7.0)),
                pairs=pairs,
                incoming_pairs=incoming,
                outgoing_pairs=incoming,
                nonempty_tiles=nonempty,
                num_tiles=num_tiles,
                mean_occupancy=pairs / nonempty,
            )
        )
    return workloads
