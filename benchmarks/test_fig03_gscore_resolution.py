"""Bench: Fig. 3 — GSCore throughput vs resolution (4 cores, 51.2 GB/s)."""

import numpy as np

from repro.experiments import fig03

from conftest import run_once


def test_fig03_gscore_resolution(benchmark, bench_frames):
    result = run_once(benchmark, fig03.plan, num_frames=bench_frames)
    print("\n" + result.to_text())

    by_res = {
        res: np.mean([r["fps"] for r in result.rows if r["resolution"] == res])
        for res in ("hd", "fhd", "qhd")
    }
    # Paper: 66.7 / 31.1 / 15.8 FPS — monotone collapse with resolution,
    # QHD far below the 60 FPS SLO, roughly 2x per resolution step.
    assert by_res["hd"] > by_res["fhd"] > by_res["qhd"]
    assert by_res["qhd"] < 30.0
    assert by_res["hd"] / by_res["qhd"] > 2.0
