"""Declarative scenario-sweep specifications.

A :class:`SweepSpec` names a cartesian grid over the repo's workload axes —
scene presets (optionally with ``num_gaussians`` scaling), trajectory
archetypes, sorting strategies, and hardware configurations — plus the
shared capture parameters (frames, resolutions).  Specs parse from plain
dicts or JSON, validate every axis against the live registries, and expand
into an ordered list of :class:`SweepPoint`\\ s, which the executor
compiles to cacheable engine cells.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Any

from ..core.strategies import STRATEGIES
from ..hw.config import EDGE_BANDWIDTH_GBPS
from ..hw.system import registered_systems
from ..scene.camera import RESOLUTIONS
from ..scene.datasets import SCENE_SPECS, TRAJECTORY_ARCHETYPES



@dataclass(frozen=True)
class HardwareConfig:
    """One hardware point on the sweep grid.

    Parameters
    ----------
    system:
        Performance model to run — any name in the hardware registry
        (:func:`repro.hw.system.registered_systems`; ``repro systems list``
        enumerates them).
    resolution:
        Named target resolution the workload is scaled to.
    bandwidth_gbps:
        DRAM bandwidth for the ASIC models (the GPU always runs at Orin's
        native bandwidth).
    cores:
        Sorting-core count for GSCore sweeps.
    """

    system: str = "neo"
    resolution: str = "qhd"
    bandwidth_gbps: float = EDGE_BANDWIDTH_GBPS
    cores: int = 16

    def __post_init__(self) -> None:
        # Normalize before validating so equivalent inputs ("NEO", 52 vs
        # 52.0) produce identical configs and therefore identical cache keys.
        object.__setattr__(self, "system", str(self.system).lower())
        object.__setattr__(self, "resolution", str(self.resolution).lower())
        object.__setattr__(self, "bandwidth_gbps", float(self.bandwidth_gbps))
        object.__setattr__(self, "cores", int(self.cores))
        if self.system not in registered_systems():
            raise ValueError(
                f"unknown system {self.system!r}; options: {list(registered_systems())}"
            )
        if self.resolution not in RESOLUTIONS:
            raise ValueError(
                f"unknown resolution {self.resolution!r}; options: {sorted(RESOLUTIONS)}"
            )
        if not (math.isfinite(self.bandwidth_gbps) and self.bandwidth_gbps > 0):
            raise ValueError(
                f"bandwidth_gbps must be finite and positive, got {self.bandwidth_gbps}"
            )
        if self.cores < 1:
            raise ValueError("cores must be >= 1")

    @property
    def label(self) -> str:
        """Compact identifier used in report rows."""
        return f"{self.system}@{self.bandwidth_gbps:g}GBps/{self.resolution}"

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-ready)."""
        return {
            "system": self.system,
            "resolution": self.resolution,
            "bandwidth_gbps": self.bandwidth_gbps,
            "cores": self.cores,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "HardwareConfig":
        """Build from a plain dict, rejecting unknown keys."""
        if not isinstance(payload, dict):
            raise ValueError(f"hardware entry must be a dict, got {type(payload).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown hardware keys {unknown}; options: {sorted(known)}")
        return cls(**payload)


@dataclass(frozen=True)
class SweepPoint:
    """One fully resolved grid point: everything needed to evaluate it.

    The executor compiles a point to engine cells (a ``SimJob`` and, with
    ``measure_quality``, a ``QualityJob``); the cells' cache keys are their
    parameters, never the point's ``index`` in the grid.
    """

    index: int
    scene: str
    num_gaussians: int | None
    trajectory: str
    speed: float
    strategy: str
    hardware: HardwareConfig
    frames: int
    capture_width: int
    capture_height: int
    render_width: int
    render_height: int
    measure_quality: bool

    @property
    def label(self) -> str:
        """Human-readable identifier for logs and report rows."""
        gaussians = "default" if self.num_gaussians is None else str(self.num_gaussians)
        return (
            f"{self.scene}[{gaussians}]/{self.trajectory}x{self.speed:g}"
            f"/{self.strategy}/{self.hardware.label}"
        )


def _is_int(value: Any) -> bool:
    """True for integers, excluding ``bool`` (``True`` is not a frame count)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _as_tuple(value: Any) -> tuple:
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of a scenario sweep.

    Every ``*s`` field is one grid axis; :meth:`points` expands the full
    cartesian product in a deterministic order.  Scalars are accepted
    wherever an axis is expected (``scenes="family"`` means a single-entry
    axis), and lists are normalized to tuples so specs stay hashable.

    Parameters
    ----------
    name / description:
        Identity for registries, reports and file names.
    scenes:
        Scene preset names from :data:`repro.scene.datasets.SCENE_SPECS`.
    num_gaussians:
        Functional Gaussian counts to instantiate (``None`` keeps each
        preset's default) — the scaling axis.
    trajectories:
        Archetypes from :data:`repro.scene.datasets.TRAJECTORY_ARCHETYPES`.
    speeds:
        Camera-motion multipliers (Fig. 17b-style rapid-movement stress).
    strategies:
        Sorting strategies from :data:`STRATEGIES`.
    hardware:
        :class:`HardwareConfig` grid entries.
    frames:
        Frames per sequence (shared by all points).
    capture_width / capture_height:
        Resolution the workload-model geometry is captured at.
    render_width / render_height:
        Resolution of the functional quality render.
    measure_quality:
        When false, points skip the functional render (and its PSNR/SSIM
        columns) and only run the hardware models — much cheaper for
        hardware-axis sweeps like the bandwidth study.
    """

    name: str
    description: str = ""
    scenes: tuple[str, ...] = ("family",)
    num_gaussians: tuple[int | None, ...] = (None,)
    trajectories: tuple[str, ...] = ("orbit",)
    speeds: tuple[float, ...] = (1.0,)
    strategies: tuple[str, ...] = ("neo",)
    hardware: tuple[HardwareConfig, ...] = field(default_factory=lambda: (HardwareConfig(),))
    frames: int = 6
    capture_width: int = 480
    capture_height: int = 270
    render_width: int = 160
    render_height: int = 90
    measure_quality: bool = True

    def __post_init__(self) -> None:
        for axis in ("scenes", "num_gaussians", "trajectories", "speeds", "strategies",
                     "hardware"):
            object.__setattr__(self, axis, _as_tuple(getattr(self, axis)))
        if not self.name or not isinstance(self.name, str):
            raise ValueError("spec needs a non-empty name")
        # Normalize for stable cache keys: equivalent spellings of the same
        # grid ("Family", speed 2 vs 2.0, hardware given as dicts) must
        # expand to identical points.
        for axis in ("scenes", "trajectories", "strategies"):
            object.__setattr__(
                self, axis, tuple(str(v).lower() for v in getattr(self, axis))
            )
        object.__setattr__(self, "speeds", tuple(float(s) for s in self.speeds))
        object.__setattr__(
            self,
            "hardware",
            tuple(
                hw if isinstance(hw, HardwareConfig) else HardwareConfig.from_dict(hw)
                for hw in self.hardware
            ),
        )
        for axis in ("scenes", "num_gaussians", "trajectories", "speeds", "strategies",
                     "hardware"):
            if not getattr(self, axis):
                raise ValueError(f"axis {axis!r} must have at least one entry")
        unknown = sorted(set(self.scenes) - set(SCENE_SPECS))
        if unknown:
            raise ValueError(f"unknown scenes {unknown}; options: {sorted(SCENE_SPECS)}")
        unknown = sorted(set(self.trajectories) - set(TRAJECTORY_ARCHETYPES))
        if unknown:
            raise ValueError(
                f"unknown trajectories {unknown}; options: {list(TRAJECTORY_ARCHETYPES)}"
            )
        unknown = sorted(set(self.strategies) - set(STRATEGIES))
        if unknown:
            raise ValueError(f"unknown strategies {unknown}; options: {list(STRATEGIES)}")
        for count in self.num_gaussians:
            if count is not None and (not _is_int(count) or count < 8):
                raise ValueError(f"num_gaussians entries must be ints >= 8 or null, got {count!r}")
        for speed in self.speeds:
            if not (math.isfinite(speed) and speed > 0):
                raise ValueError(f"speeds must be finite and positive, got {speed}")
        if not _is_int(self.frames) or self.frames < 2:
            raise ValueError(
                f"frames must be an integer >= 2 (churn metrics need a predecessor), "
                f"got {self.frames!r}"
            )
        for dim in (self.capture_width, self.capture_height,
                    self.render_width, self.render_height):
            if not _is_int(dim) or dim < 16:
                raise ValueError(
                    f"capture/render dimensions must be integers >= 16 px, got {dim!r}"
                )

    # ------------------------------------------------------------------
    # Grid expansion
    # ------------------------------------------------------------------
    @property
    def num_points(self) -> int:
        """Grid size (product of axis lengths) without materializing it."""
        return (
            len(self.scenes)
            * len(self.num_gaussians)
            * len(self.trajectories)
            * len(self.speeds)
            * len(self.strategies)
            * len(self.hardware)
        )

    def points(self) -> list[SweepPoint]:
        """Expand the cartesian grid in deterministic axis-major order."""
        grid = itertools.product(
            self.scenes,
            self.num_gaussians,
            self.trajectories,
            self.speeds,
            self.strategies,
            self.hardware,
        )
        return [
            SweepPoint(
                index=i,
                scene=scene,
                num_gaussians=count,
                trajectory=trajectory,
                speed=speed,
                strategy=strategy,
                hardware=hardware,
                frames=self.frames,
                capture_width=self.capture_width,
                capture_height=self.capture_height,
                render_width=self.render_width,
                render_height=self.render_height,
                measure_quality=self.measure_quality,
            )
            for i, (scene, count, trajectory, speed, strategy, hardware) in enumerate(grid)
        ]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Canonical plain-dict form (JSON-ready, round-trips)."""
        return {
            "name": self.name,
            "description": self.description,
            "scenes": list(self.scenes),
            "num_gaussians": list(self.num_gaussians),
            "trajectories": list(self.trajectories),
            "speeds": list(self.speeds),
            "strategies": list(self.strategies),
            "hardware": [hw.to_dict() for hw in self.hardware],
            "frames": self.frames,
            "capture_width": self.capture_width,
            "capture_height": self.capture_height,
            "render_width": self.render_width,
            "render_height": self.render_height,
            "measure_quality": self.measure_quality,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SweepSpec":
        """Build a validated spec from a plain dict, rejecting unknown keys."""
        if not isinstance(payload, dict):
            raise ValueError(f"sweep spec must be a dict, got {type(payload).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown sweep-spec keys {unknown}; options: {sorted(known)}")
        # __post_init__ normalizes axes, including hardware entries given as
        # plain dicts.
        return cls(**payload)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        """Parse a spec from a JSON document."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"sweep spec is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def to_json(self) -> str:
        """Serialize to a stable, human-editable JSON document."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)
