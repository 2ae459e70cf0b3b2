"""Bench: Fig. 16 — DRAM traffic for 60 QHD frames per system."""

from repro.experiments import fig16

from conftest import run_once


def test_fig16_traffic(benchmark, bench_frames):
    result = run_once(benchmark, fig16.plan, num_frames=bench_frames)
    print("\n" + result.to_text())
    cuts = fig16.reductions(result)
    print(cuts)

    # Paper: Orin ~346.5 GB, GSCore ~104.6 GB, Neo ~19.6 GB over 60 frames
    # -> 94.4% and 81.3% reductions.
    mean = result.filter(scene="MEAN")[0]
    assert 200 < mean["orin"] < 500
    assert 60 < mean["gscore"] < 160
    assert mean["neo"] < 35
    assert cuts["vs_orin"] > 0.90
    assert cuts["vs_gscore"] > 0.70
