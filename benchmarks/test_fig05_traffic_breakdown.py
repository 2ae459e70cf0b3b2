"""Bench: Fig. 5 — DRAM traffic breakdown of GPU 3DGS and GSCore."""

import pytest

from repro.experiments import fig05

from conftest import run_once

pytestmark = pytest.mark.slow


def test_fig05_traffic_breakdown(benchmark, bench_frames):
    result = run_once(benchmark, fig05.plan, num_frames=bench_frames)
    print("\n" + result.to_text())

    # Paper: sorting dominates — up to 91% of GPU traffic and 63-69% of
    # GSCore traffic; GSCore cuts total traffic versus the GPU.
    gpu_qhd = result.filter(system="orin", resolution="qhd")[0]
    gsc_qhd = result.filter(system="gscore", resolution="qhd")[0]
    assert gpu_qhd["sorting_share"] > 0.80
    assert 0.5 < gsc_qhd["sorting_share"] < 0.85
    assert gsc_qhd["total_gb"] < 0.5 * gpu_qhd["total_gb"]

    # Sorting share grows with resolution on the GPU (81% -> 91%).
    gpu_hd = result.filter(system="orin", resolution="hd")[0]
    assert gpu_qhd["sorting_share"] > gpu_hd["sorting_share"]

    # Traffic grows with resolution for both systems.
    for system in ("orin", "gscore"):
        rows = {r["resolution"]: r["total_gb"] for r in result.filter(system=system)}
        assert rows["hd"] < rows["fhd"] < rows["qhd"]
