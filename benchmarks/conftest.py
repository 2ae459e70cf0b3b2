"""Benchmark harness configuration.

Every module regenerates one paper table/figure via its experiment driver
and asserts the paper's qualitative claims (who wins, by roughly what
factor, where crossovers fall).  ``pytest-benchmark`` times the driver; the
reproduced rows are printed so ``pytest benchmarks/ --benchmark-only -s``
doubles as the artifact-regeneration script.
"""

from __future__ import annotations

import pytest

from repro.experiments import execute_plan

#: Scenes/frames used by the bench drivers: the full six-scene set is the
#: paper configuration; trim via ``--bench-scenes`` if iterating.
BENCH_FRAMES = 8


@pytest.fixture(scope="session")
def bench_frames() -> int:
    """Frames per simulated sequence in benchmark runs."""
    return BENCH_FRAMES


def run_once(benchmark, plan, **params):
    """Build and execute one experiment plan exactly once under the benchmark timer."""
    return benchmark.pedantic(
        lambda: execute_plan(plan(**params)), rounds=1, iterations=1
    )
