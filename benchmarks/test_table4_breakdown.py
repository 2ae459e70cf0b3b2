"""Bench: Table 4 — Neo component-level area/power breakdown."""

import pytest

from repro.experiments import table4

from conftest import run_once


def test_table4_breakdown(benchmark):
    result = run_once(benchmark, table4.plan)
    print("\n" + result.to_text())

    rows = {r["component"]: r for r in result.rows}
    # Paper Table 4 engine roll-ups.
    assert rows["[Preprocessing Engine]"]["power_mw"] == pytest.approx(194.9, abs=1.0)
    assert rows["[Sorting Engine]"]["area_mm2"] == pytest.approx(0.053, abs=0.002)
    assert rows["[Rasterization Engine]"]["power_mw"] == pytest.approx(443.9, abs=2.0)
    assert rows["Total"]["area_mm2"] == pytest.approx(0.387, abs=0.005)

    # Neo's added hardware (MSU+ and ITUs) costs ~9% of area and power.
    share = table4.added_hardware_share()
    print("added hardware share:", share)
    assert share["area_share"] == pytest.approx(0.0904, abs=0.01)
    assert share["power_share"] == pytest.approx(0.0891, abs=0.01)
