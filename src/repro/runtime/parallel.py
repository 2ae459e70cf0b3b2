"""Process-parallel fan-out: order-preserving task maps and sharded renders.

Two fan-out primitives, both with deterministic merges:

* **Task-level** — :func:`parallel_map` is the order-preserving map the
  :class:`~repro.experiments.engine.ExperimentEngine` and the sweep
  executor fan their cache-miss cells out through.
* **Frame-level** — :func:`parallel_render_sequence` shards a camera
  trajectory into contiguous frame ranges and renders each shard in its own
  worker.  Frames rendered by a stateless sorting strategy are independent,
  so the merged output is bitwise-identical to a serial
  :meth:`~repro.pipeline.renderer.Renderer.render_sequence`.  Stateful
  strategies (Neo's reuse-and-update chain) carry inter-frame state and are
  transparently rendered serially.
"""

from __future__ import annotations

import multiprocessing
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from ..pipeline.renderer import FrameRecord, Renderer
    from ..scene.camera import Camera


def _mp_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (cheap, shares the loaded scene pages); else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def parallel_map(func, tasks: list, jobs: int) -> list:
    """Order-preserving map of a picklable function over a task list.

    The shared fan-out primitive behind the experiment engine and the
    sweep executor (:mod:`repro.sweeps`): ``jobs <= 1`` (or a single task)
    runs in-process, anything else goes through a :mod:`multiprocessing`
    pool sized to ``min(jobs, len(tasks))``.  Results always come back in
    task order regardless of completion order, so callers' merges stay
    deterministic.
    """
    if jobs <= 1 or len(tasks) <= 1:
        return [func(task) for task in tasks]
    ctx = _mp_context()
    with ctx.Pool(processes=min(jobs, len(tasks))) as pool:
        return pool.map(func, tasks)


# ----------------------------------------------------------------------
# Frame-level parallelism
# ----------------------------------------------------------------------
_render_state: dict[str, Any] = {}


def _init_render_worker(renderer: "Renderer") -> None:
    _render_state["renderer"] = renderer


def _render_shard(shard: "tuple[int, list[Camera]]") -> "list[FrameRecord]":
    """Render one shard: ``(first frame index, that shard's cameras)``.

    Each task carries only its own camera slice — workers never receive the
    full trajectory — so the per-task payload stays constant as the
    trajectory grows and the spawn start method (which pickles initargs and
    tasks alike) ships no redundant frames.
    """
    start, cameras = shard
    renderer = _render_state["renderer"]
    return [
        renderer.render(camera, frame_index=start + offset)
        for offset, camera in enumerate(cameras)
    ]


def _contiguous_shards(num_items: int, num_shards: int) -> list[list[int]]:
    """Split ``range(num_items)`` into <= num_shards contiguous index runs."""
    num_shards = max(1, min(num_shards, num_items))
    base, extra = divmod(num_items, num_shards)
    shards: list[list[int]] = []
    start = 0
    for shard in range(num_shards):
        size = base + (1 if shard < extra else 0)
        shards.append(list(range(start, start + size)))
        start += size
    return shards


def parallel_render_sequence(
    renderer: "Renderer", cameras: "list[Camera]", jobs: int
) -> "list[FrameRecord]":
    """Render a trajectory with frame-level sharding.

    Bitwise-identical to the serial path: shards are contiguous, workers
    thread the true frame indices through, and the merge concatenates shards
    in order.  Falls back to serial rendering when the strategy carries
    inter-frame state (parallel shards would diverge from the serial
    reuse chain) or when there is nothing to fan out.
    """
    stateless = getattr(renderer.strategy, "stateless", False)
    if jobs <= 1 or len(cameras) <= 1 or not stateless:
        return [renderer.render(camera, frame_index=i) for i, camera in enumerate(cameras)]

    shards = _contiguous_shards(len(cameras), jobs)
    tasks = [(shard[0], [cameras[i] for i in shard]) for shard in shards]
    ctx = _mp_context()
    with ctx.Pool(
        processes=len(shards),
        initializer=_init_render_worker,
        initargs=(renderer,),
    ) as pool:
        parts = pool.map(_render_shard, tasks)
    return [record for part in parts for record in part]
