"""Frozen per-frame scalar reference for the system models.

This module preserves, verbatim, the pre-registry scalar implementations of
the three hardware models' per-frame equations — the code that used to live
inside ``NeoModel.frame_report`` / ``GSCoreModel.frame_report`` /
``OrinGpuModel.frame_report`` before the shared vectorized core landed in
:mod:`repro.hw.system`.  It exists for two callers only:

* the **golden equivalence tests** (``tests/test_system_registry.py``),
  which assert that for every registered system the vectorized
  ``simulate()`` is *bit-identical* to this scalar per-frame loop — the
  pre/post-refactor pin;
* the **vectorization micro-benchmark** (``benchmarks/`` and the CI smoke),
  which times this loop against the batched core on a long trajectory.

Because this is a historical pin, it must only change when a model's
physics deliberately changes — keep it in lockstep with the equations in
:mod:`repro.hw.accelerator` / :mod:`repro.hw.gscore` / :mod:`repro.hw.gpu`.
"""

from __future__ import annotations

import numpy as np

from .accelerator import (
    _BITMAP_BYTES_64,
    _DRAM_EFFICIENCY as _NEO_DRAM_EFFICIENCY,
    _ENTRY_BYTES as _NEO_ENTRY_BYTES,
    _INIT_SORT_PASSES,
    _PREPROC_CYCLES_PER_GAUSSIAN,
    _RANDOM_BURST_BYTES,
    _RANDOM_EFFICIENCY,
    _RASTER_CYCLES_PER_PAIR as _NEO_RASTER_CYCLES_PER_PAIR,
    _SERIAL_OVERHEAD_S as _NEO_SERIAL_OVERHEAD_S,
    _TERMINATION_DEPTH_64,
    NeoModel,
    sort_cycles_per_entry,
)
from .gpu import (
    _BLEND_RATE,
    _BLEND_TILE_COVERAGE,
    _FEATURE_RATE,
    _GPU_DRAM_EFFICIENCY,
    _SORT_SW_RATE,
    _TERMINATION_DEPTH_16 as _GPU_TERMINATION_DEPTH_16,
    OrinGpuModel,
)
from .gscore import (
    _CYCLES_PER_TILE,
    _DRAM_EFFICIENCY as _GSCORE_DRAM_EFFICIENCY,
    _ENTRY_BYTES as _GSCORE_ENTRY_BYTES,
    _BITMAP_BYTES,
    _RASTER_CYCLES_PER_PAIR as _GSCORE_RASTER_CYCLES_PER_PAIR,
    _SERIAL_OVERHEAD_S as _GSCORE_SERIAL_OVERHEAD_S,
    _SORT_CYCLES_PER_PAIR,
    _TERMINATION_DEPTH_16 as _GSCORE_TERMINATION_DEPTH_16,
    GSCoreModel,
)
from .stages import (
    CULL_PROBE_BYTES,
    FEATURE_2D_BYTES,
    FEATURE_3D_BYTES,
    PIXEL_BYTES,
    FrameReport,
    SequenceReport,
    StageTraffic,
    effective_pairs,
)
from .system import SystemModel
from ..pipeline.tiling import TileStream
from .workload import FrameWorkload, WorkloadModel


# ----------------------------------------------------------------------
# Neo
# ----------------------------------------------------------------------
def _neo_traffic_split(
    model: NeoModel, workload: FrameWorkload
) -> tuple[StageTraffic, float]:
    visible = workload.visible
    total = workload.num_gaussians
    pairs = workload.pairs

    feature = (
        visible * FEATURE_3D_BYTES
        + (total - visible) * CULL_PROBE_BYTES
        + visible * FEATURE_2D_BYTES
    )

    if workload.frame_index == 0:
        sorting = pairs * _NEO_ENTRY_BYTES * (1 + 2 * _INIT_SORT_PASSES)
    else:
        sorting = (
            2 * pairs * _NEO_ENTRY_BYTES
            + 2 * workload.incoming_pairs * _NEO_ENTRY_BYTES
        )

    random_bytes = 0.0
    if model.sorting_engine_only:
        random_bytes = visible * _RANDOM_BURST_BYTES
        sorting += pairs * _NEO_ENTRY_BYTES
    elif not model.defer_depth_update:
        sorting += 2 * pairs * _NEO_ENTRY_BYTES

    blended = effective_pairs(workload, _TERMINATION_DEPTH_64)
    raster = blended * FEATURE_2D_BYTES + workload.width * workload.height * PIXEL_BYTES
    if model.sorting_engine_only:
        raster += 2 * pairs * _BITMAP_BYTES_64

    streamed = StageTraffic(
        feature_extraction=feature, sorting=sorting, rasterization=raster
    )
    return streamed, random_bytes


def _neo_frame_report(model: NeoModel, workload: FrameWorkload) -> FrameReport:
    streamed, random_bytes = _neo_traffic_split(model, workload)
    peak = model.dram.bandwidth_gbps * 1e9
    memory_time = streamed.total / (peak * _NEO_DRAM_EFFICIENCY)
    memory_time += random_bytes / (peak * _RANDOM_EFFICIENCY)

    freq = model.config.frequency_ghz * 1e9
    preproc_time = (
        workload.num_gaussians
        * _PREPROC_CYCLES_PER_GAUSSIAN
        / (model.config.projection_units * freq)
    )
    sort_time = (
        workload.pairs
        * sort_cycles_per_entry(model.config)
        / (model.config.sorting_cores * freq)
    )
    blended = effective_pairs(workload, _TERMINATION_DEPTH_64)
    raster_time = (
        blended * _NEO_RASTER_CYCLES_PER_PAIR / (model.config.total_scus * freq)
    )
    compute_time = max(preproc_time, sort_time, raster_time)

    traffic = StageTraffic(
        feature_extraction=streamed.feature_extraction,
        sorting=streamed.sorting + random_bytes,
        rasterization=streamed.rasterization,
    )
    latency_mem = max(memory_time, compute_time) + _NEO_SERIAL_OVERHEAD_S
    return FrameReport(
        frame_index=workload.frame_index,
        traffic=traffic,
        memory_time_s=latency_mem,
        compute_time_s=0.0,
    )


# ----------------------------------------------------------------------
# GSCore
# ----------------------------------------------------------------------
def _gscore_frame_traffic(model: GSCoreModel, workload: FrameWorkload) -> StageTraffic:
    visible = workload.visible
    total = workload.num_gaussians
    pairs = workload.pairs

    feature = (
        visible * FEATURE_3D_BYTES
        + (total - visible) * CULL_PROBE_BYTES
        + visible * FEATURE_2D_BYTES
    )
    sorting = pairs * _GSCORE_ENTRY_BYTES * (1 + 2 * model.config.sorting_passes)
    bitmap_traffic = 2 * pairs * _BITMAP_BYTES

    blended = effective_pairs(workload, _GSCORE_TERMINATION_DEPTH_16)
    raster = (
        blended * FEATURE_2D_BYTES
        + bitmap_traffic
        + workload.width * workload.height * PIXEL_BYTES
    )
    return StageTraffic(
        feature_extraction=feature, sorting=sorting, rasterization=raster
    )


def _gscore_frame_report(model: GSCoreModel, workload: FrameWorkload) -> FrameReport:
    traffic = _gscore_frame_traffic(model, workload)
    bandwidth = model.dram.bandwidth_gbps * 1e9 * _GSCORE_DRAM_EFFICIENCY
    memory_time = traffic.total / bandwidth

    freq = model.config.frequency_ghz * 1e9
    cores = model.config.cores
    blended = effective_pairs(workload, _GSCORE_TERMINATION_DEPTH_16)
    raster_cycles = blended * _GSCORE_RASTER_CYCLES_PER_PAIR
    raster_cycles += workload.nonempty_tiles * _CYCLES_PER_TILE
    sort_cycles = workload.pairs * _SORT_CYCLES_PER_PAIR
    compute_time = (
        (raster_cycles + sort_cycles) / (cores * freq) + _GSCORE_SERIAL_OVERHEAD_S
    )

    return FrameReport(
        frame_index=workload.frame_index,
        traffic=traffic,
        memory_time_s=memory_time,
        compute_time_s=compute_time,
    )


# ----------------------------------------------------------------------
# Orin GPU
# ----------------------------------------------------------------------
def _orin_frame_traffic(model: OrinGpuModel, workload: FrameWorkload) -> StageTraffic:
    cfg = model.config
    visible = workload.visible
    total = workload.num_gaussians
    pairs = workload.pairs

    feature = (
        visible * FEATURE_3D_BYTES
        + (total - visible) * CULL_PROBE_BYTES
        + visible * FEATURE_2D_BYTES
    )

    if model.neo_software:
        entry = 8
        sorting = 2 * pairs * entry + 2 * workload.incoming_pairs * entry
    else:
        entry = cfg.sort_entry_bytes
        sorting = pairs * entry * (1 + 2 * cfg.sort_passes)

    blended = effective_pairs(workload, _GPU_TERMINATION_DEPTH_16)
    raster = blended * FEATURE_2D_BYTES + workload.width * workload.height * PIXEL_BYTES
    return StageTraffic(
        feature_extraction=feature, sorting=sorting, rasterization=raster
    )


def _orin_frame_report(model: OrinGpuModel, workload: FrameWorkload) -> FrameReport:
    cfg = model.config
    traffic = _orin_frame_traffic(model, workload)
    bandwidth = cfg.bandwidth_gbps * 1e9 * _GPU_DRAM_EFFICIENCY

    feature_time = max(
        traffic.feature_extraction / bandwidth,
        workload.num_gaussians / _FEATURE_RATE,
    )

    if model.neo_software:
        sort_compute = workload.pairs / _SORT_SW_RATE
    else:
        sort_compute = 0.0
    sort_time = max(traffic.sorting / bandwidth, sort_compute)

    blended = effective_pairs(workload, _GPU_TERMINATION_DEPTH_16)
    blend_pixels = blended * (cfg.tile_size**2) * _BLEND_TILE_COVERAGE
    raster_time = max(traffic.rasterization / bandwidth, blend_pixels / _BLEND_RATE)

    memory_time = (
        traffic.feature_extraction + traffic.sorting + traffic.rasterization
    ) / bandwidth
    compute_residual = (feature_time + sort_time + raster_time) - memory_time
    return FrameReport(
        frame_index=workload.frame_index,
        traffic=traffic,
        memory_time_s=memory_time,
        compute_time_s=max(compute_residual, 0.0),
    )


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
def scalar_frame_report(model: SystemModel, workload: FrameWorkload) -> FrameReport:
    """One frame through the frozen scalar equations for ``model``."""
    if isinstance(model, NeoModel):
        return _neo_frame_report(model, workload)
    if isinstance(model, GSCoreModel):
        return _gscore_frame_report(model, workload)
    if isinstance(model, OrinGpuModel):
        return _orin_frame_report(model, workload)
    raise TypeError(f"no scalar reference for {type(model).__name__}")


def scalar_simulate(
    model: SystemModel, workloads: list[FrameWorkload], scene: str = "scene"
) -> SequenceReport:
    """The historical per-frame Python loop: one scalar report per frame."""
    if not workloads:
        raise ValueError("need at least one workload")
    report = SequenceReport(
        system=model.name,
        scene=scene,
        resolution=(workloads[0].width, workloads[0].height),
    )
    report.frames = [scalar_frame_report(model, w) for w in workloads]
    return report


# ----------------------------------------------------------------------
# Workload temporal-similarity pins
# ----------------------------------------------------------------------
# Frozen scalar implementations of the WorkloadModel similarity queries
# (pair keys / ``_churn_counts`` / ``shared_fraction_per_tile`` /
# ``order_differences``) exactly as they existed before the tile-stream
# segmented rewrite.  They rebuild the per-Gaussian pair lists directly from
# the frozen ``scalar_pair_lists`` on the model's scaled geometry, so they
# are independent of the model's stream cache and of the shared row-run
# kernel.


def _depth_percentile(query: np.ndarray, population: np.ndarray) -> np.ndarray:
    """Continuous ECDF percentile of ``query`` depths within ``population``."""
    sorted_pop = np.sort(population)
    n = sorted_pop.shape[0]
    if n < 2:
        return np.zeros_like(query)
    return np.interp(query, sorted_pop, np.linspace(0.0, 1.0, n))


def _group_by_tile(tiles: np.ndarray, rows: np.ndarray) -> dict[int, np.ndarray]:
    """Split a pair list into per-tile row arrays."""
    order = np.argsort(tiles, kind="stable")
    tiles_sorted = tiles[order]
    rows_sorted = rows[order]
    out: dict[int, np.ndarray] = {}
    if tiles_sorted.shape[0] == 0:
        return out
    boundaries = np.flatnonzero(np.diff(tiles_sorted)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [tiles_sorted.shape[0]]])
    for s, e in zip(starts, ends):
        out[int(tiles_sorted[s])] = rows_sorted[s:e]
    return out


def scalar_pair_lists(
    means2d: np.ndarray,
    radii: np.ndarray,
    width: int,
    height: int,
    tile_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Compute (tile, Gaussian-row) duplication pairs for given geometry.

    The per-candidate expansion as it stood before the row-run kernel
    (:func:`repro.pipeline.tiling.pair_lists`): every bbox cell is repeated,
    divided and modded out of one flat index, then circle-tested on its own.
    """
    m = means2d.shape[0]
    if m == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    tiles_x = -(-width // tile_size)
    tiles_y = -(-height // tile_size)
    x, y, r = means2d[:, 0], means2d[:, 1], radii

    tx0 = np.clip(np.floor((x - r) / tile_size).astype(np.int64), 0, tiles_x - 1)
    ty0 = np.clip(np.floor((y - r) / tile_size).astype(np.int64), 0, tiles_y - 1)
    tx1 = np.clip(np.floor((x + r) / tile_size).astype(np.int64), -1, tiles_x - 1)
    ty1 = np.clip(np.floor((y + r) / tile_size).astype(np.int64), -1, tiles_y - 1)
    off = (x + r < 0) | (y + r < 0) | (x - r >= width) | (y - r >= height)
    tx1[off] = tx0[off] - 1

    nx = np.maximum(tx1 - tx0 + 1, 0)
    ny = np.maximum(ty1 - ty0 + 1, 0)
    counts = nx * ny
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    rows = np.repeat(np.arange(m, dtype=np.int64), counts)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    local = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    nx_rep = np.repeat(np.maximum(nx, 1), counts)
    dx = local % nx_rep
    dy = local // nx_rep
    tiles = (np.repeat(ty0, counts) + dy) * tiles_x + np.repeat(tx0, counts) + dx

    # Exact circle-vs-rect refinement.
    tile_px = (tiles % tiles_x) * tile_size
    tile_py = (tiles // tiles_x) * tile_size
    cx = x[rows]
    cy = y[rows]
    rr = r[rows]
    qx = np.clip(cx, tile_px, np.minimum(tile_px + tile_size, width))
    qy = np.clip(cy, tile_py, np.minimum(tile_py + tile_size, height))
    keep = (qx - cx) ** 2 + (qy - cy) ** 2 <= rr * rr
    return tiles[keep], rows[keep]


def _scalar_frame_pairs(
    model: WorkloadModel, frame: int, width: int, height: int, tile_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-Gaussian (tile, row) pair lists, bypassing the stream cache."""
    means2d, radii = model.scaled_geometry(frame, (width, height))
    return scalar_pair_lists(means2d, radii, width, height, tile_size)


def _scalar_frame_stream(
    model: WorkloadModel, frame: int, width: int, height: int, tile_size: int
) -> TileStream:
    """The frame's pairs grouped by tile with an int64 stable argsort."""
    tiles, rows = _scalar_frame_pairs(model, frame, width, height, tile_size)
    num_tiles = (-(-width // tile_size)) * (-(-height // tile_size))
    if tiles.shape[0] == 0:
        return TileStream.empty(num_tiles)
    order = np.argsort(tiles, kind="stable")
    offsets = np.searchsorted(tiles[order], np.arange(num_tiles + 1))
    return TileStream(num_tiles=num_tiles, values=rows[order], offsets=offsets)


def _scalar_stream_keys(
    model: WorkloadModel, frame: int, width: int, height: int, tile_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """(stream-order keys, sorted keys) of a frame's (tile, ID) pairs."""
    stream = _scalar_frame_stream(model, frame, width, height, tile_size)
    keys = stream.tile_of() * (1 << 32) + model.frames[frame].ids[stream.values]
    return keys, np.sort(keys)


def _scalar_membership_count(keys: np.ndarray, table_sorted: np.ndarray) -> int:
    """Number of ``keys`` present in a pre-sorted key table."""
    if table_sorted.shape[0] == 0:
        return 0
    pos = np.searchsorted(table_sorted, keys)
    safe = np.minimum(pos, table_sorted.shape[0] - 1)
    return int(np.count_nonzero(table_sorted[safe] == keys))


def scalar_frame_workload(
    model: WorkloadModel, frame: int, resolution, tile_size: int
) -> FrameWorkload:
    """Paper-scale workload for one frame, extracted as before the shared kernel.

    Pairs come from :func:`scalar_pair_lists`, grouping from an int64 stable
    argsort, and churn from two sorted-table memberships per frame pair
    (incoming: current keys absent from the previous frame; outgoing: the
    reverse).  Nothing is cached.
    """
    width, height = model._resolve(resolution)
    stream = _scalar_frame_stream(model, frame, width, height, tile_size)
    geo = model.frames[frame]
    num_tiles = stream.num_tiles

    occupancy = stream.counts()
    nonempty = int(np.count_nonzero(occupancy))
    pairs_f = stream.num_pairs

    if frame == 0:
        incoming_f, outgoing_f = 0, 0
    else:
        cur, cur_sorted = _scalar_stream_keys(model, frame, width, height, tile_size)
        prev, prev_sorted = _scalar_stream_keys(model, frame - 1, width, height, tile_size)
        incoming_f = cur.shape[0] - _scalar_membership_count(cur, prev_sorted)
        outgoing_f = prev.shape[0] - _scalar_membership_count(prev, cur_sorted)

    scale = model.count_scale
    mean_occ = (pairs_f / nonempty * scale) if nonempty else 0.0
    return FrameWorkload(
        frame_index=frame,
        width=width,
        height=height,
        tile_size=tile_size,
        num_gaussians=model.functional_gaussians * scale,
        visible=geo.num_visible * scale,
        pairs=pairs_f * scale,
        incoming_pairs=incoming_f * scale,
        outgoing_pairs=outgoing_f * scale,
        nonempty_tiles=nonempty,
        num_tiles=num_tiles,
        mean_occupancy=mean_occ,
    )


def scalar_sequence_workloads(
    model: WorkloadModel, resolution, tile_size: int
) -> list[FrameWorkload]:
    """:func:`scalar_frame_workload` for every captured frame."""
    return [
        scalar_frame_workload(model, i, resolution, tile_size)
        for i in range(model.num_frames)
    ]


def scalar_pair_keys(
    model: WorkloadModel, frame: int, resolution, tile_size: int
) -> np.ndarray:
    """Unique (tile, global-ID) keys for a frame's pairs."""
    width, height = model._resolve(resolution)
    tiles, rows = _scalar_frame_pairs(model, frame, width, height, tile_size)
    ids = model.frames[frame].ids[rows]
    return tiles.astype(np.int64) * (1 << 32) + ids


def scalar_churn_counts(
    model: WorkloadModel, frame: int, resolution, tile_size: int
) -> tuple[int, int]:
    """(incoming, outgoing) pair counts vs. the previous frame."""
    if frame == 0:
        return 0, 0
    cur = scalar_pair_keys(model, frame, resolution, tile_size)
    prev = scalar_pair_keys(model, frame - 1, resolution, tile_size)
    incoming = int(np.count_nonzero(~np.isin(cur, prev)))
    outgoing = int(np.count_nonzero(~np.isin(prev, cur)))
    return incoming, outgoing


def scalar_shared_fraction_per_tile(
    model: WorkloadModel, frame: int, resolution, tile_size: int
) -> np.ndarray:
    """Per-tile share of the previous frame's Gaussians retained (Fig. 6)."""
    if frame == 0:
        raise ValueError("frame 0 has no predecessor")
    width, height = model._resolve(resolution)
    prev_tiles, prev_rows = _scalar_frame_pairs(model, frame - 1, width, height, tile_size)
    cur_keys = scalar_pair_keys(model, frame, (width, height), tile_size)
    prev_ids = model.frames[frame - 1].ids[prev_rows]
    prev_keys = prev_tiles.astype(np.int64) * (1 << 32) + prev_ids
    retained = np.isin(prev_keys, cur_keys)

    _, inverse, counts = np.unique(prev_tiles, return_inverse=True, return_counts=True)
    kept = np.bincount(inverse, weights=retained, minlength=counts.shape[0])
    return kept / counts


def scalar_order_differences(
    model: WorkloadModel, frame: int, resolution, tile_size: int
) -> np.ndarray:
    """Per-Gaussian sort-position shifts between consecutive frames (Fig. 7)."""
    if frame == 0:
        raise ValueError("frame 0 has no predecessor")
    width, height = model._resolve(resolution)
    prev_pairs = _scalar_frame_pairs(model, frame - 1, width, height, tile_size)
    cur_pairs = _scalar_frame_pairs(model, frame, width, height, tile_size)
    return scalar_order_differences_pairs(
        prev_pairs, cur_pairs, model.frames[frame - 1], model.frames[frame],
        model.count_scale,
    )


def scalar_order_differences_pairs(
    prev_pairs, cur_pairs, prev_geo, cur_geo, count_scale: float
) -> np.ndarray:
    """The per-tile order-difference loop over prebuilt pair lists.

    Split out so the benchmark can time the query against cached pair lists,
    matching what the historical ``_pair_cache`` amortized.
    """
    prev_tiles, prev_rows = prev_pairs
    cur_tiles, cur_rows = cur_pairs

    diffs: list[np.ndarray] = []
    cur_by_tile = _group_by_tile(cur_tiles, cur_rows)
    prev_by_tile = _group_by_tile(prev_tiles, prev_rows)
    for tile, prev_r in prev_by_tile.items():
        cur_r = cur_by_tile.get(tile)
        if cur_r is None:
            continue
        prev_ids = prev_geo.ids[prev_r]
        cur_ids = cur_geo.ids[cur_r]
        shared, prev_pos, cur_pos = np.intersect1d(
            prev_ids, cur_ids, assume_unique=True, return_indices=True
        )
        if shared.shape[0] < 2:
            continue
        # Rank both frames within the *shared* population so membership
        # churn does not masquerade as reordering; only genuine depth
        # re-ordering among retained Gaussians contributes.
        shared_prev_depths = prev_geo.depths[prev_r][prev_pos]
        shared_cur_depths = cur_geo.depths[cur_r][cur_pos]
        pct_prev = _depth_percentile(shared_prev_depths, shared_prev_depths)
        pct_cur = _depth_percentile(shared_cur_depths, shared_cur_depths)
        nominal_occ = cur_r.shape[0] * count_scale
        diffs.append(np.abs(pct_cur - pct_prev) * nominal_occ)
    if not diffs:
        return np.empty(0)
    return np.concatenate(diffs)
