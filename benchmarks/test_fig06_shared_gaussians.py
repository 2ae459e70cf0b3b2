"""Bench: Fig. 6 — CDF of per-tile shared-Gaussian proportion."""

from repro.experiments import fig06

from conftest import run_once


def test_fig06_shared_gaussians(benchmark):
    result = run_once(benchmark, fig06.plan)
    print("\n" + result.to_text())

    # Paper: in all six scenes, over 90% of tiles retain more than 78% of
    # their Gaussians from the previous frame.
    for row in result.rows:
        assert row["tiles_retaining_78pct"] > 0.90, row["scene"]
        assert row["median_shared"] > 0.90, row["scene"]
