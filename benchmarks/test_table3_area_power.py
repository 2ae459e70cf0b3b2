"""Bench: Table 3 — accelerator area/power at 7 nm, 1 GHz."""

import pytest

from repro.experiments import table3

from conftest import run_once


def test_table3_area_power(benchmark):
    result = run_once(benchmark, table3.plan)
    print("\n" + result.to_text())

    gscore = result.filter(device="GSCore")[0]
    neo = result.filter(device="Neo")[0]
    # Paper Table 3: GSCore 0.417 mm^2 / 719.9 mW; Neo 0.387 mm^2 / 797.8 mW
    # (slightly smaller area, marginally higher power).
    assert gscore["area_mm2"] == pytest.approx(0.417, abs=0.005)
    assert gscore["power_mw"] == pytest.approx(719.9, abs=2.0)
    assert neo["area_mm2"] == pytest.approx(0.387, abs=0.005)
    assert neo["power_mw"] == pytest.approx(797.8, abs=2.0)
    assert neo["area_mm2"] < gscore["area_mm2"]
    assert neo["power_mw"] > gscore["power_mw"]
