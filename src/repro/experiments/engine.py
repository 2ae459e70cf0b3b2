"""Plan/execute core shared by every experiment driver and every sweep.

Every figure/table driver is a *plan* — an :class:`ExperimentPlan`
declaring the grid of :class:`SimJob` cells plus a pure
``aggregate(cells) -> ExperimentResult`` function.  A plan runs either
in-process through :func:`execute_plan` or through the
:class:`ExperimentEngine`, which collects cells from many experiments at
once, dedupes identical cells across figures (fig03/fig04/fig15/table2 all
re-simulate overlapping GSCore/Neo cells), serves hits from the
:class:`~repro.runtime.cache.ResultCache`, and fans misses out through
:func:`~repro.runtime.parallel.parallel_map` with the runtime's
parallel-vs-serial byte-identical contract.

Layering::

    repro experiments (CLI) --> ExperimentEngine --+
    repro sweep run   (CLI) --> SweepRunner  ------+--> execute_cells --> evaluate_cell
                                                        (dedup, cache     (SimJob.simulate,
                                                         probe, fan-out,   QualityJob.measure,
                                                         merge, store)     ExperimentTask)

:func:`evaluate_cell` is the one worker body and never touches the report
cache; :func:`execute_cells` is the only code that caches a cell.  A sweep
point compiles to a :class:`SimJob` plus, if it measures quality, a
:class:`QualityJob`.
Aggregation stays in the parent process and is pure, so serial, parallel,
cold, and warm executions all produce row-identical
:class:`~repro.experiments.runner.ExperimentResult`\\ s and sweep reports.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from ..core.strategies import STRATEGIES, make_strategy
from ..hw.config import DramConfig
from ..hw.stages import SequenceReport
from ..hw.system import get_system
from ..hw.workload import CAPTURE_HEIGHT, CAPTURE_WIDTH
from ..metrics.image import psnr, ssim
from ..pipeline.renderer import Renderer
from ..runtime.cache import ResultCache, stable_key
from ..runtime.parallel import parallel_map
from ..scene.camera import RESOLUTIONS
from ..scene.datasets import SCENE_SPECS, TRAJECTORY_ARCHETYPES, archetype_trajectory, load_scene
from . import runner
from .runner import DEFAULT_FRAMES, ExperimentResult


# ----------------------------------------------------------------------
# Cells: one simulation cell, one render-quality cell
# ----------------------------------------------------------------------
def _is_int(value: Any) -> bool:
    """True for integers, excluding ``bool`` (``True`` is not a count)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_cell(cell, sizes: tuple[str, str], trajectory_optional: bool) -> None:
    """Validate a cell's scene, trajectory, count, speed and pixel ``sizes``.

    Numeric spellings are normalized (4 vs 4.0) so equal cells hash equal.
    """
    if not isinstance(cell.scene, str) or cell.scene not in SCENE_SPECS:
        raise ValueError(f"unknown scene {cell.scene!r}; options: {sorted(SCENE_SPECS)}")
    if cell.trajectory not in TRAJECTORY_ARCHETYPES and not (
        trajectory_optional and cell.trajectory is None
    ):
        raise ValueError(
            f"unknown trajectory {cell.trajectory!r}; options: {list(TRAJECTORY_ARCHETYPES)}"
        )
    if cell.num_gaussians is not None:
        if not _is_int(cell.num_gaussians) or cell.num_gaussians < 8:
            raise ValueError(
                f"num_gaussians must be None or an integer >= 8, got {cell.num_gaussians!r}"
            )
        object.__setattr__(cell, "num_gaussians", int(cell.num_gaussians))
    object.__setattr__(cell, "speed", float(cell.speed))
    if not (math.isfinite(cell.speed) and cell.speed > 0):
        raise ValueError(f"speed must be finite and > 0, got {cell.speed}")
    for name in sizes:
        value = getattr(cell, name)
        if not _is_int(value) or value < 16:
            raise ValueError(f"{name} must be an integer >= 16 px, got {value!r}")
        object.__setattr__(cell, name, int(value))


@dataclass(frozen=True)
class SimJob:
    """One (system, scene, resolution, ...) simulation cell.

    A value object: two jobs with equal parameters are the *same* cell, which
    is what lets the engine dedupe overlapping cells across experiments.
    ``frames=None`` means "the run's frame count" and is pinned via
    :meth:`resolved` before execution, so cells declared by different figures
    with different spellings of the default still collapse.

    The capture fields (``trajectory``: an archetype name, ``None`` for the
    scene's default; ``num_gaussians``: ``None`` for the preset's; the
    capture size) keep their defaults in figures and vary in sweeps.
    """

    system: str
    scene: str
    resolution: str
    frames: int | None = None
    speed: float = 1.0
    cores: int = 16
    bandwidth_gbps: float = 51.2
    trajectory: str | None = None
    num_gaussians: int | None = None
    capture_width: int = CAPTURE_WIDTH
    capture_height: int = CAPTURE_HEIGHT

    def __post_init__(self) -> None:
        # Fail at declaration time, not deep inside a worker: every cell
        # must name a registered system (same error the runner would raise)
        # and parameters the models can simulate.
        get_system(self.system)
        _check_cell(self, ("capture_width", "capture_height"), trajectory_optional=True)
        if not isinstance(self.resolution, str) or self.resolution not in RESOLUTIONS:
            raise ValueError(
                f"unknown resolution {self.resolution!r}; options: {sorted(RESOLUTIONS)}"
            )
        if self.frames is not None and (not _is_int(self.frames) or self.frames < 1):
            raise ValueError(f"frames must be None or an integer >= 1, got {self.frames!r}")
        object.__setattr__(self, "cores", int(self.cores))
        object.__setattr__(self, "bandwidth_gbps", float(self.bandwidth_gbps))
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")
        if not (math.isfinite(self.bandwidth_gbps) and self.bandwidth_gbps > 0):
            raise ValueError(f"bandwidth_gbps must be finite and > 0, got {self.bandwidth_gbps}")

    @classmethod
    def make(
        cls,
        system: str,
        scene: str,
        resolution: str,
        *,
        frames: int | None = None,
        speed: float = 1.0,
        cores: int = 16,
        bandwidth_gbps: float = 51.2,
    ) -> "SimJob":
        """Build a job with everything after the resolution given by keyword."""
        return cls(system, scene, resolution, frames, speed, cores, bandwidth_gbps)

    def to_payload(self) -> dict[str, Any]:
        """JSON-safe request form of this cell (service wire format).

        Round-trips through :meth:`from_payload`: the service's coalesce and
        cache keys are computed from the reconstructed job, so two clients
        spelling the same cell differently (4 vs 4.0) still collapse.
        """
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: Mapping) -> "SimJob":
        """Rebuild a cell from :meth:`to_payload` output.

        Missing optional keys take their defaults; unknown keys (a typo such
        as ``bandwith_gbps``) are rejected, not silently ignored.
        """
        if not isinstance(payload, Mapping):
            raise ValueError(f"job must be an object, got {type(payload).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown job keys {unknown}; options: {sorted(known)}")
        return cls(**payload)

    def resolved(self, frames: int | None = None) -> "SimJob":
        """This job with ``frames=None`` pinned to ``frames``.

        ``frames=None`` pins :data:`~repro.experiments.runner.DEFAULT_FRAMES`;
        a job that already names its frames is returned unchanged.
        """
        if self.frames is not None:
            return self
        return replace(self, frames=DEFAULT_FRAMES if frames is None else frames)

    def cache_spec(self) -> tuple[str, dict[str, Any]]:
        """(namespace, payload) of this cell's report-cache entry.

        The one place the report key is built: :func:`execute_cells` and the
        service both store and probe reports under it.
        """
        if self.frames is None:
            raise ValueError("cache_spec() needs concrete frames; call resolved() first")
        return "reports", {"kind": "report", **asdict(self)}

    def capture_key(self) -> tuple:
        """Key of this cell's workload in the capture memo (and its arguments)."""
        return runner.capture_key(
            self.scene, self.frames, self.speed, self.num_gaussians,
            self.trajectory, self.capture_width, self.capture_height,
        )

    def simulate(self) -> SequenceReport:
        """Evaluate this cell: capture the workload, build the model, simulate.

        Reads and writes no report cache: :func:`execute_cells` and the
        service own report persistence.  ``frames=None`` simulates
        :data:`~repro.experiments.runner.DEFAULT_FRAMES`.  ``get_workload_model``
        and ``build_system_model`` are looked up on :mod:`.runner` at call
        time, so interposing on the module attribute (profiling spans) sees
        them.  ``dram_policy="edge"`` systems use this cell's bandwidth;
        ``"native"`` systems (the GPU) always run at their own memory system.
        """
        wm = runner.get_workload_model(*self.capture_key())
        model, tile = runner.build_system_model(
            self.system,
            dram=DramConfig(bandwidth_gbps=self.bandwidth_gbps),
            cores=self.cores,
        )
        return model.simulate(wm.sequence_workloads(self.resolution, tile), scene=self.scene)


@dataclass(frozen=True)
class QualityJob:
    """One render-quality cell: a sorting strategy against the exact sort.

    :meth:`measure` renders the ``trajectory`` archetype at ``width`` x
    ``height`` both ways and compares the frames.
    """

    scene: str
    num_gaussians: int | None
    trajectory: str
    speed: float
    strategy: str
    frames: int
    width: int
    height: int

    def __post_init__(self) -> None:
        _check_cell(self, ("width", "height"), trajectory_optional=False)
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; options: {list(STRATEGIES)}")
        if not _is_int(self.frames) or self.frames < 1:
            raise ValueError(f"frames must be an integer >= 1, got {self.frames!r}")

    def cache_spec(self) -> tuple[str, dict[str, Any]]:
        """(namespace, payload) of this cell's report-cache entry."""
        return "reports", {"kind": "quality", **asdict(self)}

    def _images(self, **renderer_kwargs) -> list[np.ndarray]:
        cameras = archetype_trajectory(
            self.scene, self.trajectory, self.frames, self.speed, self.width, self.height
        )
        scene = load_scene(self.scene, num_gaussians=self.num_gaussians)
        return [r.image for r in Renderer(scene, **renderer_kwargs).render_sequence(cameras)]

    def measure(self) -> dict[str, Any]:
        """Per-frame ``psnr_db`` and ``ssim``, and the strategy's ``func_sort_mb``."""
        strategy = make_strategy(self.strategy)
        images = self._images(strategy=strategy)
        references = _reference_images(replace(self, strategy="full"))
        return {
            "psnr_db": [psnr(ref, image) for ref, image in zip(references, images)],
            "ssim": [ssim(ref, image) for ref, image in zip(references, images)],
            "func_sort_mb": float(strategy.total_traffic().total_bytes / 1e6),
        }


@lru_cache(maxsize=4)
def _reference_images(job: QualityJob) -> tuple[np.ndarray, ...]:
    """Exact-sort frames of ``job``'s point (keyed with its strategy pinned)."""
    return tuple(job._images())


class CellResults(Mapping):
    """Cell reports keyed by :class:`SimJob`, tolerant of unresolved frames.

    Aggregate functions look cells up with the same job objects their plan
    declared; jobs declared with ``frames=None`` are resolved against the
    run's ``frames`` on lookup, mirroring what the engine did at dispatch time.
    """

    def __init__(self, reports: dict[SimJob, Any], frames: int | None = None) -> None:
        self._reports = reports
        self._frames = frames

    def __getitem__(self, job: SimJob):
        return self._reports[job.resolved(self._frames)]

    def __iter__(self) -> Iterator[SimJob]:
        return iter(self._reports)

    def __len__(self) -> int:
        return len(self._reports)


# ----------------------------------------------------------------------
# ExperimentPlan: declarative driver
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentPlan:
    """One experiment's declared cells plus its pure aggregation function.

    ``aggregate`` receives a :class:`CellResults` mapping covering (at least)
    ``cells`` and returns the finished
    :class:`~repro.experiments.runner.ExperimentResult`.  It must be pure with
    respect to the cell reports — all simulation happens through the engine —
    but drivers whose work is not cell-shaped (functional renders, analytic
    tables) may compute everything inside ``aggregate`` and declare no cells.

    Plan construction must stay cheap: defer any simulation or rendering into
    ``aggregate`` or cell execution.
    """

    name: str
    description: str
    cells: tuple[SimJob, ...]
    aggregate: Callable[[CellResults], ExperimentResult]


def execute_plan(plan: ExperimentPlan, frames: int | None = None) -> ExperimentResult:
    """Evaluate one plan in-process (serial path).

    Cells declared with ``frames=None`` run at ``frames`` (``None``:
    :data:`~repro.experiments.runner.DEFAULT_FRAMES`).  Cells are deduped
    within the plan and evaluated through :meth:`SimJob.simulate` (no report
    cache; the in-process workload memo still applies), then aggregated.
    """
    reports: dict[SimJob, Any] = {}
    for job in plan.cells:
        resolved = job.resolved(frames)
        if resolved not in reports:
            reports[resolved] = resolved.simulate()
    return plan.aggregate(CellResults(reports, frames))


# ----------------------------------------------------------------------
# execute_cells: the shared fan-out primitive
# ----------------------------------------------------------------------
@dataclass
class CellBatch:
    """Outcome of one :func:`execute_cells` call.

    ``values`` and ``from_cache`` align with the input cell list (duplicates
    included); ``keys`` carries each cell's stable cache key so callers can
    compute their own per-subset statistics.
    """

    values: list[Any]
    from_cache: list[bool]
    keys: list[str]
    requested: int
    unique: int
    hits: int
    computed: int
    elapsed_s: float

    @property
    def deduplicated(self) -> int:
        """Cells served by another identical cell in the same batch."""
        return self.requested - self.unique


def execute_cells(
    cells: list,
    evaluate: Callable[[Any], Any],
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> CellBatch:
    """Evaluate a batch of cells: dedup, cache probe, parallel fan-out, merge.

    Each cell must provide ``cache_spec() -> (namespace, payload)`` and be
    picklable; ``evaluate`` must be a picklable callable (workers receive the
    cell objects).  Identical cells — equal stable cache keys — are evaluated
    once and their value is shared; previously cached cells never reach a
    worker.  Results come back aligned with the input order, so callers'
    merges are deterministic regardless of ``jobs``.  Every computed value
    is stored here, in the parent: ``evaluate`` never persists anything.
    """
    start = time.perf_counter()
    keys: list[str] = []
    spec_by_key: dict[str, tuple[str, dict[str, Any]]] = {}
    unique_cells: dict[str, Any] = {}
    for cell in cells:
        namespace, payload = cell.cache_spec()
        key = stable_key(payload)
        keys.append(key)
        if key not in unique_cells:
            unique_cells[key] = cell
            spec_by_key[key] = (namespace, payload)

    values: dict[str, Any] = {}
    cached_keys: set[str] = set()
    misses: list[tuple[str, Any]] = []
    for key, cell in unique_cells.items():
        namespace, payload = spec_by_key[key]
        cached = cache.get(namespace, payload) if cache is not None else None
        if cached is not None:
            values[key] = cached
            cached_keys.add(key)
        else:
            misses.append((key, cell))

    computed = parallel_map(evaluate, [cell for _, cell in misses], jobs)
    for (key, _), value in zip(misses, computed):
        values[key] = value
        if cache is not None:
            namespace, payload = spec_by_key[key]
            cache.put(namespace, payload, value)

    return CellBatch(
        values=[values[key] for key in keys],
        from_cache=[key in cached_keys for key in keys],
        keys=keys,
        requested=len(cells),
        unique=len(unique_cells),
        hits=len(cached_keys),
        computed=len(misses),
        elapsed_s=time.perf_counter() - start,
    )


# ----------------------------------------------------------------------
# ExperimentEngine: multi-experiment orchestration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentTask:
    """A whole experiment dispatched by registry name.

    Used for plans with no declared cells (functional renders, analytic
    tables): their work is not cell-shaped, so the engine runs the entire
    driver in a worker — through the same :func:`execute_cells` batch as the
    simulation cells, cached under the ``experiments`` namespace.
    """

    name: str
    frames: int | None

    def cache_spec(self) -> tuple[str, dict[str, Any]]:
        return "experiments", {
            "kind": "experiment",
            "name": self.name,
            "frames": DEFAULT_FRAMES if self.frames is None else self.frames,
        }


def evaluate_cell(task):
    """The one worker body: simulation, render-quality and whole-experiment cells.

    Everything a task needs travels with it: a cell carries its resolved
    frames, a whole-experiment task its frame override.  Results are
    returned, never stored: the parent's :func:`execute_cells` persists them.
    """
    if isinstance(task, SimJob):
        return task.simulate()
    if isinstance(task, QualityJob):
        return task.measure()
    from . import registry

    start = time.perf_counter()
    result = execute_plan(registry.PLANS[task.name](), task.frames)
    return {
        "name": result.name,
        "description": result.description,
        "rows": result.rows,
        "elapsed_s": time.perf_counter() - start,
    }


@dataclass
class CellStats:
    """Simulation-cell accounting for one engine run."""

    requested: int = 0
    unique: int = 0
    hits: int = 0
    computed: int = 0

    @property
    def deduplicated(self) -> int:
        """Cells that another experiment (or loop) had already declared."""
        return self.requested - self.unique


@dataclass
class EngineOutcome:
    """One experiment's result plus provenance for reporting."""

    name: str
    result: ExperimentResult
    elapsed_s: float
    from_cache: bool


@dataclass
class EngineRun:
    """All outcomes of one engine invocation plus cell-level statistics."""

    outcomes: list[EngineOutcome]
    cells: CellStats
    elapsed_s: float

    @property
    def all_cached(self) -> bool:
        """True when every experiment was served whole from the result cache."""
        return all(outcome.from_cache for outcome in self.outcomes)


@dataclass
class ExperimentEngine:
    """Collects cells from many experiments, dedupes, and fans out once.

    Parameters
    ----------
    jobs:
        Worker processes for cache-miss evaluation; ``1`` runs in-process.
        Parallelism is cell-granular: one fig15 GSCore cell and one fig16 Neo
        cell can run side by side even though they belong to different
        figures.
    frames:
        Frame count for every cell declared with ``frames=None`` (``None``:
        :data:`~repro.experiments.runner.DEFAULT_FRAMES`); drivers that pin
        their own count ignore it.
    cache:
        Result cache for cells (``reports``) and whole experiment results
        (``experiments``); ``None`` disables persistence.
    """

    jobs: int = 1
    frames: int | None = None
    cache: ResultCache | None = field(default_factory=ResultCache)

    # ------------------------------------------------------------------
    # Registry-level entry point
    # ------------------------------------------------------------------
    def run(self, names: list[str]) -> EngineRun:
        """Run registered experiments by name; output order matches input.

        Whole-result cache hits skip planning entirely; everything else is
        planned, cross-figure-deduped, and executed through one
        :func:`execute_cells` batch.
        """
        from . import registry

        start = time.perf_counter()
        unknown = [n for n in names if n.lower() not in registry.PLANS]
        if unknown:
            raise KeyError(
                f"unknown experiments {unknown}; options: {sorted(registry.PLANS)}"
            )
        names = [n.lower() for n in names]

        outcomes: dict[str, EngineOutcome] = {}
        plans: list[ExperimentPlan] = []
        for name in dict.fromkeys(names):  # preserve order, drop repeats
            task = ExperimentTask(name, self.frames)
            cached = self.cache.get(*task.cache_spec()) if self.cache else None
            if cached is not None:
                result = ExperimentResult(
                    name=cached["name"],
                    description=cached["description"],
                    rows=cached["rows"],
                )
                outcomes[name] = EngineOutcome(name, result, elapsed_s=0.0, from_cache=True)
            else:
                plans.append(registry.PLANS[name]())

        planned, stats = self._execute_plans(plans, dispatch_cell_less_by_name=True)
        for plan in plans:
            outcomes[plan.name] = planned[id(plan)]
        return EngineRun(
            outcomes=[outcomes[name] for name in names],
            cells=stats,
            elapsed_s=time.perf_counter() - start,
        )

    def run_plans(self, plans: list[ExperimentPlan]) -> EngineRun:
        """Run explicit plans (e.g. parameterized ones tests build directly).

        No whole-result caching — plans are arbitrary, so only their cells
        are cached — and cell-less plans aggregate in the parent process.
        Plans are tracked by identity, so two differently-parameterized plans
        sharing a name each keep their own outcome slot.
        """
        start = time.perf_counter()
        planned, stats = self._execute_plans(list(plans), dispatch_cell_less_by_name=False)
        return EngineRun(
            outcomes=[planned[id(plan)] for plan in plans],
            cells=stats,
            elapsed_s=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------
    # Shared execution
    # ------------------------------------------------------------------
    def _execute_plans(
        self,
        plans: list[ExperimentPlan],
        dispatch_cell_less_by_name: bool,
    ) -> tuple[dict[int, EngineOutcome], CellStats]:
        """Execute plans; returns outcomes keyed by plan identity plus stats."""
        outcomes: dict[int, EngineOutcome] = {}
        if not plans:
            return outcomes, CellStats()
        cell_plans = [plan for plan in plans if plan.cells]
        whole_plans = [plan for plan in plans if not plan.cells]

        sim_cells = [job.resolved(self.frames) for plan in cell_plans for job in plan.cells]
        tasks: list[Any] = list(sim_cells)
        if dispatch_cell_less_by_name:
            tasks += [ExperimentTask(plan.name, self.frames) for plan in whole_plans]

        batch = execute_cells(tasks, evaluate_cell, jobs=self.jobs, cache=self.cache)

        n_sim = len(sim_cells)
        reports = dict(zip(sim_cells, batch.values[:n_sim]))
        cells = CellResults(reports, self.frames)
        for plan in cell_plans:
            t0 = time.perf_counter()
            result = plan.aggregate(cells)
            outcomes[id(plan)] = EngineOutcome(
                plan.name, result, time.perf_counter() - t0, from_cache=False
            )
            if dispatch_cell_less_by_name:
                # Registry path: plans are the default ones, so the whole
                # result is safely keyed by (name, frames).  Explicit
                # (possibly parameterized) plans only cache their cells.
                self._store_whole_result(plan.name, result)

        if dispatch_cell_less_by_name:
            for plan, value in zip(whole_plans, batch.values[n_sim:]):
                result = ExperimentResult(
                    name=value["name"],
                    description=value["description"],
                    rows=value["rows"],
                )
                outcomes[id(plan)] = EngineOutcome(
                    plan.name,
                    result,
                    elapsed_s=value.get("elapsed_s", 0.0),
                    from_cache=False,
                )
        else:
            for plan in whole_plans:
                t0 = time.perf_counter()
                result = plan.aggregate(CellResults({}, self.frames))
                outcomes[id(plan)] = EngineOutcome(
                    plan.name, result, time.perf_counter() - t0, from_cache=False
                )

        sim_keys = batch.keys[:n_sim]
        sim_flags = batch.from_cache[:n_sim]
        unique_hits = {k for k, hit in zip(sim_keys, sim_flags) if hit}
        unique_sim = set(sim_keys)
        return outcomes, CellStats(
            requested=n_sim,
            unique=len(unique_sim),
            hits=len(unique_hits),
            computed=len(unique_sim) - len(unique_hits),
        )

    def _store_whole_result(self, name: str, result: ExperimentResult) -> None:
        """Cache an aggregated result so warm runs skip planning entirely."""
        if self.cache is None:
            return
        task = ExperimentTask(name, self.frames)
        self.cache.put(
            *task.cache_spec(),
            {"name": result.name, "description": result.description, "rows": result.rows},
        )
