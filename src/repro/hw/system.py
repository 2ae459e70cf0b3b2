"""Shared system-model base and the pluggable hardware-backend registry.

Two things live here, deliberately together because they form one contract:

* :class:`SystemModel` — the base every hardware backend (Orin GPU, GSCore,
  Neo, ...) derives from.  It owns the generic per-sequence loop — workload
  list → :class:`~repro.hw.stages.StageTraffic` →
  :class:`~repro.hw.stages.FrameReport` →
  :class:`~repro.hw.stages.SequenceReport` — **vectorized across frames**:
  per-frame workload statistics are stacked into a :class:`FrameBatch` of
  NumPy arrays and each backend supplies only its model-specific traffic and
  latency equations as elementwise array expressions.  Because every
  operation is an IEEE-754 elementwise op on float64, the vectorized core is
  bit-identical to the historical per-frame Python loop (pinned by the
  golden equivalence tests against :mod:`repro.hw.reference`).

* The **system registry** — ``@register_system`` declares a backend by name
  with its metadata (description, DRAM policy, config class) and a factory;
  :func:`register_variant` derives further systems purely declaratively as
  keyword overlays on a base entry (``neo-s`` = ``neo`` +
  ``sorting_engine_only=True``).  Every consumer — the experiment runner,
  the engine's :class:`~repro.experiments.engine.SimJob` validation, sweep
  specs, the CLI — resolves system names through :func:`get_system`, so an
  unknown name always reports the true option list and registering a new
  backend is one decorator away.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from .stages import FrameReport, SequenceReport, StageTraffic
from .workload import FrameWorkload


# ----------------------------------------------------------------------
# FrameBatch: per-frame workload statistics stacked over the frame axis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FrameBatch:
    """Workload statistics for a frame sequence as arrays over the frame axis.

    The :class:`~repro.hw.workload.FrameWorkload` fields the models'
    equations read, each stacked into a length-``num_frames`` array so the
    traffic/latency equations evaluate once per sequence instead of once per
    frame.  It is not a field-for-field mirror: ``incoming_pairs`` is stacked
    only when an equation reads it, and ``outgoing_pairs``, which none reads,
    is not stacked at all.
    """

    frame_index: np.ndarray
    width: np.ndarray
    height: np.ndarray
    num_gaussians: np.ndarray
    visible: np.ndarray
    pairs: np.ndarray
    nonempty_tiles: np.ndarray
    mean_occupancy: np.ndarray
    workloads: tuple[FrameWorkload, ...] = field(repr=False)

    @classmethod
    def from_workloads(cls, workloads: list[FrameWorkload]) -> "FrameBatch":
        """Stack a workload list into frame-axis arrays.

        One pass over the workloads into a single (frames, fields) float64
        matrix — this is on the hot path of every ``simulate()`` call.  The
        integer-valued columns (frame index, dimensions, tile counts) are
        exact in float64, so sharing one dtype costs no precision.
        """
        if not workloads:
            raise ValueError("need at least one workload")
        data = np.array(
            [
                (
                    w.frame_index,
                    w.width,
                    w.height,
                    w.num_gaussians,
                    w.visible,
                    w.pairs,
                    w.nonempty_tiles,
                    w.mean_occupancy,
                )
                for w in workloads
            ],
            dtype=np.float64,
        )
        return cls(*data.T, workloads=tuple(workloads))

    @cached_property
    def incoming_pairs(self) -> np.ndarray:
        """Pairs entering their tile per frame, stacked on first read.

        Only the models that merge incoming tables (Neo, Orin running Neo's
        sort in software) read churn, and a workload counts it on first read,
        so the other models never count it.
        """
        return np.array([w.incoming_pairs for w in self.workloads], dtype=np.float64)

    @property
    def num_frames(self) -> int:
        """Frames in the batch."""
        return int(self.frame_index.shape[0])

    @property
    def pixels(self) -> np.ndarray:
        """Output pixels per frame (framebuffer size)."""
        return self.width * self.height

    def effective_pairs(self, termination_depth: float) -> np.ndarray:
        """Vectorized :func:`repro.hw.stages.effective_pairs` (per frame)."""
        per_tile = np.minimum(self.mean_occupancy, termination_depth)
        return np.where(self.nonempty_tiles == 0, 0.0, per_tile * self.nonempty_tiles)


@dataclass(frozen=True)
class TrafficBatch:
    """Per-stage DRAM traffic in bytes, as arrays over the frame axis."""

    feature_extraction: np.ndarray
    sorting: np.ndarray
    rasterization: np.ndarray

    @property
    def total(self) -> np.ndarray:
        """All bytes moved, per frame (same accumulation order as
        :attr:`repro.hw.stages.StageTraffic.total`)."""
        return self.feature_extraction + self.sorting + self.rasterization


@dataclass(frozen=True)
class ReportBatch:
    """Per-frame report columns (traffic + latency split) as arrays."""

    traffic: TrafficBatch
    memory_time_s: np.ndarray
    compute_time_s: np.ndarray


# ----------------------------------------------------------------------
# SystemModel: the shared simulation core
# ----------------------------------------------------------------------
class SystemModel:
    """Base class for hardware performance models.

    Subclasses provide the two vectorized hooks and inherit the whole
    per-sequence loop plus the single-frame conveniences:

    * :meth:`batch_traffic` — per-stage DRAM bytes per frame, matching what
      the historical ``frame_traffic`` reported (e.g. Neo reports only the
      streamed component here);
    * :meth:`batch_report` — full report columns: reported traffic plus the
      memory/compute latency split.

    The scalar entry points (:meth:`frame_traffic`, :meth:`frame_report`)
    are single-frame batches through the same equations, so a model's
    physics lives in exactly one place.
    """

    name: str = "system"

    @property
    def tile_size(self) -> int:
        """Rasterization tile size in pixels, used to bin workloads.

        Backends with a hardware-config dataclass inherit it from
        ``config.tile_size``; backends without one default to the 16 px
        baseline tile (override for anything else).
        """
        tile = getattr(getattr(self, "config", None), "tile_size", None)
        return 16 if tile is None else tile

    # -- model-specific vectorized equations ---------------------------
    def batch_traffic(self, batch: FrameBatch) -> TrafficBatch:
        """Per-stage DRAM bytes for every frame in the batch."""
        raise NotImplementedError

    def batch_report(self, batch: FrameBatch) -> ReportBatch:
        """Traffic and latency decomposition for every frame in the batch."""
        raise NotImplementedError

    # -- generic sequence loop (vectorized) ----------------------------
    def simulate(
        self, workloads: list[FrameWorkload], scene: str = "scene"
    ) -> SequenceReport:
        """Simulate a frame sequence and aggregate the reports.

        One :class:`FrameBatch` is built for the whole sequence and the
        model's equations run once over the frame axis; the resulting arrays
        are unpacked into the per-frame :class:`FrameReport` rows the
        experiment drivers consume.
        """
        if not workloads:
            raise ValueError("need at least one workload")
        batch = FrameBatch.from_workloads(workloads)
        rep = self.batch_report(batch)
        report = SequenceReport(
            system=self.name,
            scene=scene,
            resolution=(workloads[0].width, workloads[0].height),
        )
        # tolist() converts whole columns to Python floats in one C pass
        # (bit-exact), keeping the unpack loop off the per-frame hot path.
        columns = zip(
            np.broadcast_to(rep.traffic.feature_extraction, batch.pairs.shape).tolist(),
            np.broadcast_to(rep.traffic.sorting, batch.pairs.shape).tolist(),
            np.broadcast_to(rep.traffic.rasterization, batch.pairs.shape).tolist(),
            np.broadcast_to(rep.memory_time_s, batch.pairs.shape).tolist(),
            np.broadcast_to(rep.compute_time_s, batch.pairs.shape).tolist(),
        )
        report.frames = [
            FrameReport(
                frame_index=w.frame_index,
                traffic=StageTraffic(
                    feature_extraction=feature,
                    sorting=sorting,
                    rasterization=raster,
                ),
                memory_time_s=memory,
                compute_time_s=compute,
            )
            for w, (feature, sorting, raster, memory, compute) in zip(workloads, columns)
        ]
        return report

    # -- single-frame conveniences -------------------------------------
    def frame_traffic(self, workload: FrameWorkload) -> StageTraffic:
        """DRAM bytes per stage for one frame."""
        traffic = self.batch_traffic(FrameBatch.from_workloads([workload]))
        return StageTraffic(
            feature_extraction=float(traffic.feature_extraction[0]),
            sorting=float(traffic.sorting[0]),
            rasterization=float(traffic.rasterization[0]),
        )

    def frame_report(self, workload: FrameWorkload) -> FrameReport:
        """Latency and traffic for one frame."""
        return self.simulate([workload]).frames[0]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SystemSpec:
    """One registered hardware backend (or derived variant).

    Parameters
    ----------
    name:
        Registry key (``"neo"``, ``"gscore-32c"``, ...).
    description:
        One-line summary shown by ``repro systems list``.
    factory:
        ``factory(dram=..., cores=..., **model_kwargs) -> SystemModel``.
        ASIC factories honor the given :class:`~repro.hw.config.DramConfig`;
        GPU-class factories ignore it (see ``dram_policy``).
    model_cls / config_cls:
        The model dataclass and its hardware-configuration dataclass, used
        to derive the accepted-kwargs schema for ``repro systems show``.
    dram_policy:
        ``"edge"`` — the model runs on the caller-supplied DRAM
        configuration (bandwidth sweeps apply); ``"native"`` — the model
        carries its own fixed memory system (the Orin GPU always runs at
        204.8 GB/s regardless of the requested edge bandwidth).
    base:
        Name of the base system for derived variants, ``None`` for roots.
    overrides:
        Keyword overlay applied before the caller's ``model_kwargs`` when
        building a variant, stored as sorted items so specs stay hashable.
    """

    name: str
    description: str
    factory: Callable[..., SystemModel]
    model_cls: type
    config_cls: type
    dram_policy: str = "edge"
    base: str | None = None
    overrides: tuple[tuple[str, Any], ...] = ()

    @property
    def override_kwargs(self) -> dict[str, Any]:
        """The variant overlay as a plain dict."""
        return dict(self.overrides)

    def build(self, dram=None, cores: int = 16, **model_kwargs) -> SystemModel:
        """Instantiate the model; explicit ``model_kwargs`` win over the
        variant overlay."""
        merged = {**self.override_kwargs, **model_kwargs}
        return self.factory(dram=dram, cores=cores, **merged)

    def model_fields(self) -> dict[str, str]:
        """Accepted model kwargs: dataclass field -> default (as text)."""
        return {f.name: _default_repr(f) for f in fields(self.model_cls)}

    def config_fields(self) -> dict[str, str]:
        """Hardware-configuration knobs: field -> default (as text)."""
        return {f.name: _default_repr(f) for f in fields(self.config_cls)}


def _default_repr(field) -> str:
    from dataclasses import MISSING

    if field.default is not MISSING:
        return repr(field.default)
    if field.default_factory is not MISSING:  # type: ignore[misc]
        return repr(field.default_factory())
    return "(required)"


_REGISTRY: dict[str, SystemSpec] = {}


def _register(spec: SystemSpec) -> SystemSpec:
    if spec.name in _REGISTRY:
        raise ValueError(f"system {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def register_system(
    name: str,
    *,
    description: str,
    model_cls: type,
    config_cls: type,
    dram_policy: str = "edge",
) -> Callable:
    """Decorator: register ``factory`` as the builder for system ``name``."""
    if dram_policy not in ("edge", "native"):
        raise ValueError(f"dram_policy must be 'edge' or 'native', got {dram_policy!r}")

    def decorate(factory: Callable[..., SystemModel]) -> Callable[..., SystemModel]:
        _register(
            SystemSpec(
                name=name,
                description=description,
                factory=factory,
                model_cls=model_cls,
                config_cls=config_cls,
                dram_policy=dram_policy,
            )
        )
        return factory

    return decorate


def register_variant(
    name: str,
    *,
    base: str,
    description: str,
    overrides: Mapping[str, Any],
) -> SystemSpec:
    """Register a derived system as a declarative overlay on ``base``.

    The variant inherits the base's factory, metadata, and any overlay of
    its own (overlays compose, nearest variant winning), so e.g. ``neo-s``
    is exactly ``neo`` built with ``sorting_engine_only=True``.
    """
    if base not in _REGISTRY:
        raise KeyError(f"variant {name!r} derives from unregistered system {base!r}")
    base_spec = _REGISTRY[base]
    merged = {**base_spec.override_kwargs, **dict(overrides)}
    return _register(
        SystemSpec(
            name=name,
            description=description,
            factory=base_spec.factory,
            model_cls=base_spec.model_cls,
            config_cls=base_spec.config_cls,
            dram_policy=base_spec.dram_policy,
            base=base_spec.name,
            overrides=tuple(sorted(merged.items())),
        )
    )


def _ensure_populated() -> None:
    """Import the model modules so their registrations have run.

    Lazy (inside the accessors, not at module import) so ``hw.system`` never
    circularly imports the model modules that import it.
    """
    from . import accelerator, gpu, gscore  # noqa: F401


def registered_systems() -> tuple[str, ...]:
    """All registered system names, in registration order."""
    _ensure_populated()
    return tuple(_REGISTRY)


def get_system(name: str) -> SystemSpec:
    """Look up a system spec; unknown names report the true option list."""
    _ensure_populated()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown system {name!r}; options: {list(_REGISTRY)}"
        ) from None


def iter_systems() -> Iterator[SystemSpec]:
    """Iterate every registered spec in registration order."""
    _ensure_populated()
    return iter(tuple(_REGISTRY.values()))
