"""Bench: Table 2 — rendering quality of original 3DGS vs Neo."""

from repro.experiments import table2

from conftest import run_once


def test_table2_quality(benchmark):
    result = run_once(benchmark, table2.plan, num_frames=3)
    print("\n" + result.to_text())

    # Paper: PSNR delta <= 0.1 dB and LPIPS delta <= 0.001 on every scene —
    # reuse-and-update sorting is visually indistinguishable from exact
    # per-frame sorting.
    for row in result.rows:
        assert abs(row["psnr_delta"]) <= 0.15, row["scene"]
        assert abs(row["lpips_delta"]) <= 0.002, row["scene"]
        assert row["psnr_neo"] > 25.0, row["scene"]
