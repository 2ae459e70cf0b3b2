"""Bench: Fig. 15 — end-to-end throughput of Orin AGX, GSCore and Neo."""

import pytest

from repro.experiments import fig15

from conftest import run_once

pytestmark = pytest.mark.slow


def test_fig15_end_to_end(benchmark, bench_frames):
    result = run_once(benchmark, fig15.plan, num_frames=bench_frames)
    print("\n" + result.to_text())
    ratios = fig15.speedups(result)
    print(ratios)

    # Paper: Neo beats Orin by 5.0/7.2/10.0x and GSCore by 1.8/3.3/5.6x at
    # HD/FHD/QHD; both gaps widen with resolution; Neo sustains ~99 FPS at
    # QHD (real-time at AR/VR resolution).
    assert (
        ratios["hd"]["vs_orin"]
        < ratios["fhd"]["vs_orin"]
        < ratios["qhd"]["vs_orin"]
    )
    assert (
        ratios["hd"]["vs_gscore"]
        < ratios["fhd"]["vs_gscore"]
        < ratios["qhd"]["vs_gscore"]
    )
    assert 6.0 < ratios["qhd"]["vs_orin"] < 15.0
    assert 3.5 < ratios["qhd"]["vs_gscore"] < 8.0
    assert ratios["qhd"]["neo_fps"] > 80.0

    # Neo wins every (scene, resolution) cell, not just the means.
    for row in result.rows:
        assert row["neo"] > row["gscore"] > 0
        assert row["neo"] > row["orin"] > 0
