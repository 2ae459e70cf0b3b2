"""Shared infrastructure for the per-figure experiment drivers.

Each driver in this package regenerates one table or figure from the paper:
it builds the required workloads, runs the relevant system models or the
functional pipeline, and returns an :class:`ExperimentResult` whose rows
mirror the figure's data series.  Workload models are memoized in-process
per :func:`capture_key` (scene, frames, speed, count, trajectory, capture
size).  A capture projects geometry only, from the scene that
:func:`~repro.scene.datasets.load_scene` generates once per process, so a
capture after that memo is emptied re-projects the frames but does not
regenerate the scene.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from ..hw.config import DramConfig
from ..hw.system import get_system
from ..hw.workload import CAPTURE_HEIGHT, CAPTURE_WIDTH, WorkloadModel

#: Frames simulated per sequence when a cell leaves ``frames`` unset
#: (``repro experiments --frames`` overrides it per run).  The paper renders
#: 60; traffic totals are reported via
#: :meth:`SequenceReport.traffic_gb_for` so the extrapolation is explicit.
DEFAULT_FRAMES = 12

#: Frames the paper's traffic figures accumulate over.
PAPER_TRAFFIC_FRAMES = 60


@dataclass
class ExperimentResult:
    """Output of one experiment driver.

    Attributes
    ----------
    name:
        Experiment identifier (e.g. ``"fig15"``).
    description:
        What the paper figure/table shows.
    rows:
        One dict per data point, mirroring the figure's series.
    """

    name: str
    description: str
    rows: list[dict] = field(default_factory=list)

    def columns(self) -> list[str]:
        """Union of row keys in first-seen order (stable across runs)."""
        seen: dict[str, None] = {}
        for row in self.rows:
            for key in row:
                seen.setdefault(key, None)
        return list(seen)

    def to_text(self) -> str:
        """Render the rows as an aligned text table.

        Columns are the union of keys across *all* rows (headers used to come
        from ``rows[0]``, silently dropping columns that first appear in a
        later row); cells a row doesn't carry render as ``-``.
        """
        if not self.rows:
            return f"{self.name}: (no rows)"
        keys = self.columns()
        widths = {
            k: max(len(k), *(len(_cell(r, k)) for r in self.rows)) for k in keys
        }
        header = "  ".join(k.ljust(widths[k]) for k in keys)
        lines = [f"== {self.name}: {self.description} ==", header]
        for row in self.rows:
            lines.append("  ".join(_cell(row, k).ljust(widths[k]) for k in keys))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Plain-dict artifact form: a pure function of (result, code version)."""
        from ..runtime.cache import code_version

        return {
            "name": self.name,
            "description": self.description,
            "code_version": code_version(),
            "rows": self.rows,
        }

    def write_json(self, path) -> "Path":
        """Write a deterministic JSON artifact (sorted keys, trailing newline).

        Serial, parallel, cold, and warm executions of the same experiment at
        the same code version produce byte-identical files.
        """
        import json

        from ..runtime.cache import _json_default

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True, default=_json_default)
            handle.write("\n")
        return path

    def write_csv(self, path) -> "Path":
        """Write the rows as CSV over the union of columns (missing -> empty)."""
        import csv

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=self.columns(), restval="")
            writer.writeheader()
            for row in self.rows:
                writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
        return path

    def column(self, key: str) -> list:
        """Extract one column across all rows."""
        return [row[key] for row in self.rows]

    def filter(self, **conditions) -> "list[dict]":
        """Rows matching all key=value conditions."""
        return [
            row
            for row in self.rows
            if all(row.get(k) == v for k, v in conditions.items())
        ]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 100 else f"{value:.1f}"
    return str(value)


def _cell(row: dict, key: str) -> str:
    """One table cell: ``-`` when the row doesn't carry the column at all."""
    return _fmt(row[key]) if key in row else "-"


def capture_key(
    scene: str,
    num_frames: int | None = None,
    speed: float = 1.0,
    num_gaussians: int | None = None,
    trajectory: str | None = None,
    capture_width: int = CAPTURE_WIDTH,
    capture_height: int = CAPTURE_HEIGHT,
) -> tuple:
    """The capture memo's normalized key, also the service's residency key.

    ``num_frames=None`` means :data:`DEFAULT_FRAMES`; ``trajectory=None``
    the scene's default archetype.
    """
    frames = DEFAULT_FRAMES if num_frames is None else int(num_frames)
    size = (int(capture_width), int(capture_height))
    return (scene, frames, float(speed), num_gaussians, trajectory, *size)


def get_workload_model(*args, **kwargs) -> WorkloadModel:
    """Workload-model capture for :func:`capture_key`'s arguments, memoized in-process."""
    return _workload_model_cached(*capture_key(*args, **kwargs))


#: The capture memo: :meth:`WorkloadModel.from_scene` by :func:`capture_key`.
_workload_model_cached = lru_cache(maxsize=64)(WorkloadModel.from_scene)


def build_system_model(
    system: str,
    dram: DramConfig | None = None,
    cores: int = 16,
    **model_kwargs,
):
    """Instantiate a hardware model by name; returns ``(model, tile_size)``.

    Used by :meth:`~repro.experiments.engine.SimJob.simulate`, which evaluates
    the hardware cells of figures, sweeps and the service.  Dispatch goes
    through the system registry (:func:`repro.hw.system.get_system`): an
    unknown name raises ``KeyError`` listing the registered options, and
    derived variants (``neo-s``, ``gscore-32c``, ...) apply their declarative
    overlays here.
    ``dram_policy="edge"`` systems take the given DRAM configuration; the
    GPU always runs at Orin's native bandwidth.
    """
    if dram is None:
        dram = DramConfig()
    spec = get_system(system)
    model = spec.build(dram=dram, cores=cores, **model_kwargs)
    return model, model.tile_size
