"""Bench: Fig. 18 — ablation GSCore -> Neo-S -> Neo."""

from repro.experiments import fig18

from conftest import run_once


def test_fig18_ablation(benchmark, bench_frames):
    result = run_once(benchmark, fig18.plan, num_frames=bench_frames)
    print("\n" + result.to_text())

    speedups = {r["variant"]: r["speedup_vs_gscore"] for r in result.rows}
    traffic = {r["variant"]: r["relative_traffic"] for r in result.rows}

    # Paper: the Sorting Engine alone (Neo-S) delivers ~3.3x and -71%
    # traffic; integrating the Rasterization Engine adds another ~1.7x and
    # -36%, for ~5.6x / -81% total.
    assert 2.0 < speedups["neo-s"] < 5.0
    assert speedups["neo"] / speedups["neo-s"] > 1.2
    assert 0.2 < traffic["neo-s"] < 0.5
    assert traffic["neo"] < 0.8 * traffic["neo-s"]
