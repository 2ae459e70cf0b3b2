"""Bench: vectorized pipeline vs the frozen scalar reference.

Runs the ``repro bench`` suites in quick mode as a pytest gate: every bench
must stay bit-identical to its scalar reference on every run *and* clear
its speedup floor on its best of up to ``1 + FLOOR_RERUNS`` runs.  Wall-clock assertions don't belong in the fast CI leg; like the
other timing-sensitive benches here, run only in the full (slow) suite.
"""

from __future__ import annotations

import pytest

from repro.bench import run_benchmarks

pytestmark = pytest.mark.slow

PIPELINE_BENCHES = (
    "raster", "sort_batched", "order_metrics", "render_sequence", "neo_sort",
    "workload_extract",
)


#: Re-runs a bench gets while it stays under its floor.  On a shared machine
#: load alone can slow one quick run below a floor the code clears; the
#: floor is asserted on the best run, and identity on every run.
FLOOR_RERUNS = 3


def test_pipeline_benches_identity_and_floor():
    for record in run_benchmarks(list(PIPELINE_BENCHES), quick=True):
        runs = [record]
        while max(r.speedup for r in runs) < record.floor and len(runs) <= FLOOR_RERUNS:
            runs += run_benchmarks([record.name], quick=True)
        for run in runs:
            print(f"\n{run.to_text()}")
            assert run.identical, f"{run.name}: diverged from the scalar reference"
        best = max(r.speedup for r in runs)
        assert best >= record.floor, (
            f"{record.name}: best of {len(runs)} runs {best:.2f}x under the "
            f"{record.floor:.2f}x floor"
        )


def test_render_sequence_reports_stage_timings():
    (record,) = run_benchmarks(["render_sequence"], quick=True)
    stages = record.detail["stage_seconds"]
    assert stages["total_s"] > 0
    # Rasterization must dominate the synthetic bench — that is the hot
    # path whose trajectory BENCH_pipeline.json exists to track.
    assert stages["raster_s"] > 0.5 * stages["total_s"]
