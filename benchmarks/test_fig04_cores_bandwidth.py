"""Bench: Fig. 4 — GSCore QHD FPS across core counts and DRAM bandwidths."""

import pytest

from repro.experiments import fig04

from conftest import run_once

pytestmark = pytest.mark.slow


def test_fig04_cores_bandwidth(benchmark, bench_frames):
    result = run_once(benchmark, fig04.plan, num_frames=bench_frames)
    print("\n" + result.to_text())

    # Paper: at 51.2 GB/s, 4x cores buys only ~1.12x; at 16 cores, 4x
    # bandwidth buys ~3.8x — memory bandwidth is the bottleneck.
    core_gain = fig04.core_scaling_at(result, 51.2)
    bw_gain = fig04.bandwidth_scaling_at(result, 16)
    assert core_gain < 1.5
    assert bw_gain > 2.5
    assert bw_gain > 2 * core_gain

    # Only the highest-bandwidth, highest-core corner reaches the 60 FPS SLO.
    best = result.filter(bandwidth_gbps=204.8, cores=16)[0]["fps"]
    worst = result.filter(bandwidth_gbps=51.2, cores=4)[0]["fps"]
    assert best > 45.0
    assert worst < 25.0
