"""``render_exact`` and ``render_neo``: one frame of the functional pipeline per op.

Both render the ``family`` scene (4000 Gaussians, 320x180, 16 px tiles)
along a seeded slice of its orbit.  The seed picks the slice's start and
the camera speed within narrow ranges, so every seed renders a similar arc
and costs alike.  The timed ops sweep the slice forward and back
(ping-pong): motion stays temporally coherent, which Neo's reuse needs, and
however long a run lasts it keeps sampling the same frames.
"""

from __future__ import annotations

import numpy as np

from measure import interposed
from repro.core.strategies import NeoSortStrategy
from repro.metrics.image import psnr
from repro.pipeline import reference
from repro.pipeline import renderer as renderer_module
from repro.pipeline.renderer import ExactSortStrategy, Renderer
from repro.pipeline.tiling import TileGrid
from repro.scene.datasets import archetype_trajectory, load_scene

SCENE = "family"
GAUSSIANS = 4000
WIDTH, HEIGHT = 320, 180
TILE = 16
#: Frames in one slice; the ops ping-pong over them.
SLICE_FRAMES = 32
MAX_OFFSET = 48
SPEED_RANGE = (0.95, 1.05)
WARMUP_OPS = 2
CHECKED_OPS = 2
#: Neo renders from reused orderings; below this PSNR against exact sort
#: the reuse is wrong, not merely approximate.
NEO_PSNR_FLOOR_DB = 30.0

#: (owner, attribute, span) interposed in a traced op; the strategy's two
#: methods are added per session.
_PIPELINE_SPANS = [
    (renderer_module, "frustum_cull", "cull"),
    (renderer_module, "project_gaussians", "project"),
    (renderer_module, "assign_to_tiles", "tile"),
    (renderer_module, "rasterize", "raster"),
]
ROOT_SPAN = "render"
LAYER_SPANS = ("cull", "project", "tile", "sort", "feedback", "raster")
#: Per-frame work counters; the ``neo.*`` ones stay 0 under exact sort.
COUNT_NAMES = (
    "tile.pairs",
    "raster.blend_ops",
    "raster.subtile_hit_ratio",
    "raster.early_terminated_tiles",
    "neo.reuse_fraction",
    "neo.incoming",
    "neo.deleted",
    "neo.sort_traffic_kb",
)


def generate_inputs(seed: int) -> dict:
    """The seeded slice parameters (the only thing the seed decides)."""
    rng = np.random.default_rng(seed)
    return {
        "offset": int(rng.integers(0, MAX_OFFSET)),
        "speed": float(rng.uniform(*SPEED_RANGE)),
        "checked": sorted(
            int(k)
            for k in rng.choice(SLICE_FRAMES, size=CHECKED_OPS, replace=False) + WARMUP_OPS
        ),
    }


def slice_position(op: int, frames: int = SLICE_FRAMES) -> int:
    """Frame of the slice that op ``op`` renders (forward, then back, ...)."""
    period = 2 * (frames - 1)
    pos = op % period
    return pos if pos < frames else period - pos


class RenderSession:
    """One configured renderer plus its camera slice."""

    def __init__(self, seed: int, neo: bool) -> None:
        self.inputs = generate_inputs(seed)
        self.neo = neo
        self.scene = load_scene(SCENE, num_gaussians=GAUSSIANS)
        offset = self.inputs["offset"]
        self.cameras = archetype_trajectory(
            SCENE,
            "orbit",
            num_frames=offset + SLICE_FRAMES,
            speed=self.inputs["speed"],
            width=WIDTH,
            height=HEIGHT,
        )[offset:]
        strategy = NeoSortStrategy() if neo else ExactSortStrategy()
        self.renderer = Renderer(self.scene, tile_size=TILE, strategy=strategy)
        self.checked = set(self.inputs["checked"])
        for op in range(WARMUP_OPS):
            self.op(op)

    first_op = WARMUP_OPS
    #: Timed ops every run makes: one forward sweep, so the checked ops
    #: and the counted ops are the same on every machine.
    min_ops = SLICE_FRAMES

    def prepare(self, k: int) -> None:
        pass

    def op(self, k: int):
        return self.renderer.render(self.cameras[slice_position(k)], frame_index=k)

    def traced_op(self, k: int, tracer):
        strategy = self.renderer.strategy
        targets = _PIPELINE_SPANS + [
            (strategy, "sort_frame", "sort"),
            (strategy, "observe_raster", "feedback"),
        ]
        with interposed(tracer, targets), tracer.span(ROOT_SPAN):
            return self.op(k)

    def keep(self, k: int) -> bool:
        """Ops whose output is checked after the timed window."""
        return k in self.checked

    def check(self, k: int, record) -> list[str]:
        """Mismatches of one sampled frame against the frozen references."""
        grid = TileGrid.for_camera(record.camera, TILE)
        if self.neo:
            sorted_tiles = record.sorted_tiles
        else:
            sorted_tiles = reference.sort_tiles(record.assignment)
        pinned = reference.rasterize(
            sorted_tiles,
            record.projected,
            grid,
            background=self.renderer.background,
            subtile_size=self.renderer.subtile_size,
        )
        problems = []
        if not np.array_equal(pinned.image, record.raster.image):
            problems.append(f"op {k}: image differs from the scalar raster pin")
        if pinned.stats != record.raster.stats:
            problems.append(f"op {k}: RasterStats {record.raster.stats} != pin {pinned.stats}")
        got, want = record.raster.valid_bits, pinned.valid_bits
        if got.keys() != want.keys() or any(
            not np.array_equal(got[t], want[t]) for t in want
        ):
            problems.append(f"op {k}: valid_bits differ from the scalar raster pin")
        if not self.neo and not np.array_equal(sorted_tiles.ids, record.sorted_tiles.ids):
            problems.append(f"op {k}: tile order differs from the reference sort")
        if self.neo:
            exact = Renderer(self.scene, tile_size=TILE).render(record.camera)
            quality = psnr(exact.image, record.image)
            if quality < NEO_PSNR_FLOOR_DB:
                problems.append(
                    f"op {k}: Neo PSNR {quality:.2f} dB vs exact sort < {NEO_PSNR_FLOOR_DB}"
                )
        return problems

    def counts(self, record) -> dict[str, float]:
        """Deterministic per-frame work counters of one op."""
        stats = record.raster.stats
        out = dict.fromkeys(COUNT_NAMES, 0.0)
        out["tile.pairs"] = float(record.assignment.num_pairs)
        out["raster.blend_ops"] = float(stats.blend_ops)
        if stats.subtile_tests:
            out["raster.subtile_hit_ratio"] = stats.subtile_hits / stats.subtile_tests
        out["raster.early_terminated_tiles"] = float(stats.early_terminated_tiles)
        if self.neo:
            sort_stats = self.renderer.strategy.frame_stats[-1]
            out["neo.reuse_fraction"] = sort_stats.reuse_fraction
            out["neo.incoming"] = float(sort_stats.incoming_entries)
            out["neo.deleted"] = float(sort_stats.deleted_entries)
            out["neo.sort_traffic_kb"] = sort_stats.traffic.total_bytes / 1024.0
        return out


def layer_metrics(per_op_ms: dict[str, float], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of a render workload from mean span times and counts."""
    metrics = {f"{layer}.ms": per_op_ms.get(layer, 0.0) for layer in LAYER_SPANS}
    metrics["render.self_ms"] = per_op_ms.get(f"{ROOT_SPAN}.self", 0.0)
    metrics.update(counts)
    raster_ms = metrics["raster.ms"]
    blend_ops = counts["raster.blend_ops"]
    metrics["raster.blend_ops_per_ms"] = blend_ops / raster_ms if raster_ms else 0.0
    return metrics


def setup_exact(seed: int) -> RenderSession:
    return RenderSession(seed, neo=False)


def setup_neo(seed: int) -> RenderSession:
    return RenderSession(seed, neo=True)
