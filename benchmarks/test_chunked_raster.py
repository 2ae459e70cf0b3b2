"""Bench: vectorized pipeline vs the frozen scalar reference.

Runs the ``repro bench`` suites in quick mode as a pytest gate: every bench
must stay bit-identical to its scalar reference *and* clear its speedup
floor.  Wall-clock assertions don't belong in the fast CI leg; like the
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


def test_pipeline_benches_identity_and_floor():
    for record in run_benchmarks(list(PIPELINE_BENCHES), quick=True):
        print(f"\n{record.to_text()}")
        assert record.identical, f"{record.name}: diverged from the scalar reference"
        assert record.speedup >= record.floor, (
            f"{record.name}: {record.speedup:.2f}x under the {record.floor:.2f}x floor"
        )


def test_render_sequence_reports_stage_timings():
    (record,) = run_benchmarks(["render_sequence"], quick=True)
    stages = record.detail["stage_seconds"]
    assert stages["total_s"] > 0
    # Rasterization must dominate the synthetic bench — that is the hot
    # path whose trajectory BENCH_pipeline.json exists to track.
    assert stages["raster_s"] > 0.5 * stages["total_s"]
