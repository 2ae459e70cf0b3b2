"""Registry mapping paper figure/table IDs to their experiment drivers.

Each driver module exposes two things the registry surfaces:

* ``plan(**params) -> ExperimentPlan`` — the figure itself, run in-process
  by :func:`~repro.experiments.engine.execute_plan` or collected into the
  :class:`~repro.experiments.engine.ExperimentEngine`;
* ``DESCRIPTION`` — a one-line summary shown by ``repro experiments --list``.
"""

from __future__ import annotations

from collections.abc import Callable

from . import (
    bandwidth_sweep,
    fig03,
    fig04,
    fig05,
    fig06,
    fig07,
    fig09,
    fig10,
    fig15,
    fig16,
    fig17,
    fig18,
    fig19,
    recovery,
    table2,
    table3,
    table4,
)
from .engine import ExperimentPlan

#: Experiment ID -> driver module.
_MODULES = {
    "bandwidth_sweep": bandwidth_sweep,
    "fig03": fig03,
    "fig04": fig04,
    "fig05": fig05,
    "fig06": fig06,
    "fig07": fig07,
    "fig09": fig09,
    "fig10": fig10,
    "fig15": fig15,
    "fig16": fig16,
    "fig17": fig17,
    "fig18": fig18,
    "fig19": fig19,
    "recovery": recovery,
    "table2": table2,
    "table3": table3,
    "table4": table4,
}

#: Experiment ID -> zero-argument factory producing the default ExperimentPlan.
PLANS: dict[str, Callable[[], ExperimentPlan]] = {
    name: module.plan for name, module in _MODULES.items()
}


def list_experiments() -> list[str]:
    """All registered experiment IDs, sorted."""
    return sorted(PLANS)


def experiment_descriptions() -> dict[str, str]:
    """Experiment ID -> one-line summary, sorted by ID."""
    return {name: _MODULES[name].DESCRIPTION for name in sorted(_MODULES)}
