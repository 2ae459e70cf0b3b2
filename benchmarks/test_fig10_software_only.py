"""Bench: Fig. 10 — software-only Neo on Orin AGX."""

from repro.experiments import fig10

from conftest import run_once


def test_fig10_software_only(benchmark, bench_frames):
    result = run_once(benchmark, fig10.plan, num_frames=bench_frames)
    print("\n" + result.to_text())
    ratios = fig10.summary(result)
    print(ratios)

    # Paper: 70.4% total traffic cut (82.8% in sorting), but only ~1.1x
    # end-to-end speedup — the motivation for hardware co-design.
    assert ratios["traffic_reduction"] > 0.6
    assert ratios["sorting_traffic_reduction"] > 0.75
    assert 1.0 < ratios["speedup"] < 1.5
