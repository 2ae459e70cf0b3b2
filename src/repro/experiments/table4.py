"""Table 4 — per-component area/power breakdown of the Neo accelerator.

Key claim: the hardware Neo adds beyond a GSCore-style design (the MSU+ and
the ITUs) costs only ~9 % of total area and power.
"""

from __future__ import annotations

from ..hw.area_power import engine_summaries, neo_breakdown, neo_summary
from .engine import ExperimentPlan
from .runner import ExperimentResult

DESCRIPTION = "Neo component-level area (mm^2) / power (mW) breakdown"


def plan() -> ExperimentPlan:
    """No simulation cells: a pure analytic table."""

    def aggregate(_cells) -> ExperimentResult:
        result = ExperimentResult(name="table4", description=DESCRIPTION)
        for entry in neo_breakdown():
            result.rows.append(
                {"component": entry.name, "area_mm2": entry.area_mm2, "power_mw": entry.power_mw}
            )
        for entry in engine_summaries():
            result.rows.append(
                {
                    "component": f"[{entry.name}]",
                    "area_mm2": entry.area_mm2,
                    "power_mw": entry.power_mw,
                }
            )
        total = neo_summary()
        result.rows.append(
            {"component": "Total", "area_mm2": total.area_mm2, "power_mw": total.power_mw}
        )
        return result

    return ExperimentPlan("table4", DESCRIPTION, (), aggregate)


def added_hardware_share() -> dict[str, float]:
    """Area/power share of the units Neo adds (MSU+ and ITU)."""
    total = neo_summary()
    added_area = added_power = 0.0
    for entry in neo_breakdown():
        if entry.name in ("Merge Sort Unit+", "Intersection Test Unit"):
            added_area += entry.area_mm2
            added_power += entry.power_mw
    return {
        "area_share": added_area / total.area_mm2,
        "power_share": added_power / total.power_mw,
    }
