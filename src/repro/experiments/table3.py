"""Table 3 — area and power of the GSCore and Neo accelerators at 7 nm / 1 GHz."""

from __future__ import annotations

from ..hw.area_power import gscore_summary, neo_summary
from .engine import ExperimentPlan
from .runner import ExperimentResult

DESCRIPTION = "Accelerator area/power at 7 nm, 1 GHz"


def plan() -> ExperimentPlan:
    """No simulation cells: a pure analytic table."""

    def aggregate(_cells) -> ExperimentResult:
        result = ExperimentResult(name="table3", description=DESCRIPTION)
        for entry in (gscore_summary(), neo_summary()):
            result.rows.append(
                {
                    "device": entry.name,
                    "technology": "7 nm",
                    "frequency": "1 GHz",
                    "area_mm2": entry.area_mm2,
                    "power_mw": entry.power_mw,
                }
            )
        return result

    return ExperimentPlan("table3", DESCRIPTION, (), aggregate)
