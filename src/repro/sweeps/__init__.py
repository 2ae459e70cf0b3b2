"""Declarative scenario sweeps over the parallel, disk-cached runtime.

The sweep subsystem turns the per-figure experiment drivers' fixed
combinations into an explorable design space: a
:class:`~repro.sweeps.spec.SweepSpec` declares a cartesian grid over scenes,
Gaussian counts, trajectory archetypes, camera speeds, sorting strategies
and hardware configurations; the
:class:`~repro.sweeps.executor.SweepRunner` expands it, serves cached points
from the :class:`~repro.runtime.cache.ResultCache`, fans misses out across
processes, and aggregates everything into a
:class:`~repro.sweeps.report.SweepReport` with JSON / CSV / markdown
writers.  ``repro sweep run/list/report`` is the CLI surface.
"""

from .executor import SweepOutcome, SweepRunner, evaluate_point
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
    "evaluate_point",
    "get_sweep_spec",
    "list_sweep_specs",
    "read_csv_rows",
    "resolve_spec",
]
