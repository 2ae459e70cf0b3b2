"""Declarative scenario sweeps over the engine's cells.

The sweep subsystem turns the per-figure experiment drivers' fixed
combinations into an explorable design space: a
:class:`~repro.sweeps.spec.SweepSpec` declares a cartesian grid over scenes,
Gaussian counts, trajectory archetypes, camera speeds, sorting strategies
and hardware configurations.  The :class:`~repro.sweeps.executor.SweepRunner`
compiles each grid point to the engine's cells (a ``SimJob`` for the
hardware models, a ``QualityJob`` for the functional render), runs them
through the one cached, parallel cell evaluator the figures use, and
aggregates the rows into a :class:`~repro.sweeps.report.SweepReport` with
JSON / CSV / markdown writers.  ``repro sweep run/list/report`` is the CLI
surface.
"""

from .executor import SweepOutcome, SweepRunner
from .registry import PREDEFINED, get_sweep_spec, list_sweep_specs, resolve_spec
from .report import SweepReport, read_csv_rows
from .spec import STRATEGIES, HardwareConfig, SweepPoint, SweepSpec

__all__ = [
    "PREDEFINED",
    "STRATEGIES",
    "HardwareConfig",
    "SweepOutcome",
    "SweepPoint",
    "SweepReport",
    "SweepRunner",
    "SweepSpec",
    "get_sweep_spec",
    "list_sweep_specs",
    "read_csv_rows",
    "resolve_spec",
]
