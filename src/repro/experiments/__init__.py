"""Experiment drivers: one module per paper table/figure, one shared engine."""

from .engine import (
    CellResults,
    ExperimentEngine,
    ExperimentPlan,
    QualityJob,
    SimJob,
    execute_cells,
    execute_plan,
)
from .registry import (
    PLANS,
    experiment_descriptions,
    list_experiments,
)
from .runner import (
    DEFAULT_FRAMES,
    PAPER_TRAFFIC_FRAMES,
    ExperimentResult,
    get_workload_model,
)

__all__ = [
    "DEFAULT_FRAMES",
    "PLANS",
    "CellResults",
    "ExperimentEngine",
    "ExperimentPlan",
    "ExperimentResult",
    "PAPER_TRAFFIC_FRAMES",
    "QualityJob",
    "SimJob",
    "execute_cells",
    "execute_plan",
    "experiment_descriptions",
    "get_workload_model",
    "list_experiments",
]
