"""Bench: Fig. 7 — sort-order difference percentiles between frames."""

from repro.experiments import fig07

from conftest import run_once


def test_fig07_order_difference(benchmark):
    result = run_once(benchmark, fig07.plan)
    print("\n" + result.to_text())

    # Paper: 99% of the ordering stays largely consistent; the largest
    # shifts are tens of positions out of thousands per tile.
    for row in result.rows:
        assert row["p90"] <= row["p95"] <= row["p99"], row["scene"]
        # p99 is a small fraction of the per-tile table length.
        assert row["p99_relative"] < 0.05, row["scene"]
