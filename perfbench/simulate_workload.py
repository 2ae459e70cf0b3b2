"""``simulate``: one cold figure batch of hardware-model cells per op.

An op is ``execute_cells`` over ``{neo, gscore, orin} x {hd, qhd}`` for one
(scene, speed), serially and without a result cache, after the in-process
capture memo was emptied — so every batch captures its workload afresh,
as a cold figure run does.  The seed picks each op's camera speed within a
fixed range; every op runs the same six-cell mix, so op costs are alike.
"""

from __future__ import annotations

import numpy as np

from measure import interposed
from repro.experiments import runner
from repro.experiments.engine import SimJob, execute_cells
from repro.hw.reference import scalar_simulate
from repro.hw.system import SystemModel
from repro.hw.workload import WorkloadModel

SCENE = "family"
FRAMES = 4
SYSTEMS = ("neo", "gscore", "orin")
RESOLUTIONS = ("hd", "qhd")
SPEED_RANGE = (0.8, 1.2)
WARMUP_OPS = 1
CHECKED_OPS = 2
#: Ops whose outputs the checks may sample (all reached in any run).
CHECK_WINDOW = 8

ROOT_SPAN = "engine"
LAYER_SPANS = ("capture", "workload", "model")
COUNT_NAMES = (
    "workload.pairs",
    "model.neo_fps",
    "model.neo_sort_dram_mb",
    "model.gscore_fps",
    "model.orin_fps",
)
_SPANS = [
    (runner, "get_workload_model", "capture"),
    (WorkloadModel, "sequence_workloads", "workload"),
    (SystemModel, "simulate", "model"),
]


def _evaluate(job: SimJob):
    return job.simulate()


def op_speed(seed: int, k: int) -> float:
    """Camera speed of op ``k``: seeded, and distinct per op."""
    rng = np.random.default_rng([seed, k])
    return round(float(rng.uniform(*SPEED_RANGE)), 6)


def op_cells(seed: int, k: int) -> list[SimJob]:
    speed = op_speed(seed, k)
    return [
        SimJob.make(system, SCENE, resolution, frames=FRAMES, speed=speed)
        for system in SYSTEMS
        for resolution in RESOLUTIONS
    ]


def generate_inputs(seed: int, ops: int = CHECK_WINDOW) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "speeds": [op_speed(seed, k) for k in range(ops)],
        "checked": sorted(
            int(k)
            for k in rng.choice(CHECK_WINDOW, size=CHECKED_OPS, replace=False) + WARMUP_OPS
        ),
    }


class SimulateSession:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.inputs = generate_inputs(seed)
        self.checked = set(self.inputs["checked"])
        for op in range(WARMUP_OPS):
            self.prepare(op)
            self.op(op)

    first_op = WARMUP_OPS
    min_ops = CHECK_WINDOW

    def prepare(self, k: int) -> None:
        """Outside the timing: build the op's cells and empty the capture memo."""
        self._cells = op_cells(self.seed, k)
        runner._workload_model_cached.cache_clear()

    def op(self, k: int):
        return execute_cells(self._cells, _evaluate, jobs=1, cache=None).values

    def traced_op(self, k: int, tracer):
        with interposed(tracer, _SPANS), tracer.span(ROOT_SPAN):
            return self.op(k)

    def keep(self, k: int) -> bool:
        return k in self.checked

    def check(self, k: int, reports) -> list[str]:
        """Each report must equal the frozen scalar per-frame loop's."""
        problems = []
        for job, report in zip(op_cells(self.seed, k), reports):
            wm = runner.get_workload_model(job.scene, job.frames, job.speed)
            model, tile = runner.build_system_model(job.system, cores=job.cores)
            pinned = scalar_simulate(model, wm.sequence_workloads(job.resolution, tile), job.scene)
            if pinned != report:
                problems.append(f"op {k}: {job.system}/{job.resolution} report != scalar_simulate")
        return problems

    def counts(self, reports) -> dict[str, float]:
        """Simulated figures of one op (deterministic for a seed)."""
        by_cell = {
            (job.system, job.resolution): report
            for job, report in zip(self._cells, reports)
        }
        wm = runner.get_workload_model(SCENE, FRAMES, self._cells[0].speed)
        pairs = [
            w.pairs
            for job in self._cells
            for w in wm.sequence_workloads(job.resolution, runner.build_system_model(job.system)[1])
        ]
        neo = by_cell[("neo", "qhd")]
        return {
            "workload.pairs": float(np.mean(pairs)),
            "model.neo_fps": neo.fps,
            "model.neo_sort_dram_mb": neo.total_traffic.sorting / neo.num_frames / 1e6,
            "model.gscore_fps": by_cell[("gscore", "qhd")].fps,
            "model.orin_fps": by_cell[("orin", "qhd")].fps,
        }


def layer_metrics(per_op_ms: dict[str, float], counts: dict[str, float]) -> dict[str, float]:
    metrics = {f"{layer}.ms": per_op_ms.get(layer, 0.0) for layer in LAYER_SPANS}
    metrics["engine.self_ms"] = per_op_ms.get(f"{ROOT_SPAN}.self", 0.0)
    metrics.update(counts)
    return metrics


def setup(seed: int) -> SimulateSession:
    return SimulateSession(seed)
