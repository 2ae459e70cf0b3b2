"""Frozen scalar reference for the functional pipeline's hot stages.

This module preserves, verbatim, the pre-vectorization scalar
implementations of the pipeline's inner loops — the per-Gaussian,
per-tile blending loop behind :func:`repro.pipeline.rasterizer.rasterize`
(with the subtile intersection test it uses), the per-tile sorting loop
from :func:`repro.pipeline.sorting.sort_tiles`, and the rank-dict form of
:func:`repro.pipeline.sorting.kendall_tau_distance` — before the
vectorized cores landed.  It mirrors :mod:`repro.hw.reference` and exists
for two callers only:

* the **golden equivalence tests** (``tests/test_raster_reference.py``),
  which assert that the level-major rasterizer, the batched tile sort, and
  the vectorized rank metric are *bit-identical* to these scalar loops —
  images, ``valid_bits``, and every :class:`RasterStats` counter;
* the **benchmark subsystem** (``repro bench`` and the CI smoke job),
  which times these loops against the vectorized paths and records the
  speedup trajectory in ``BENCH_pipeline.json``.

Because this is a historical pin, it must only change when the pipeline's
physics deliberately changes — keep it in lockstep with the public
functions in :mod:`repro.pipeline.rasterizer` / :mod:`repro.pipeline.sorting`.
"""

from __future__ import annotations

import numpy as np

from .framebuffer import Framebuffer
from .projection import ProjectedGaussians
from .rasterizer import (
    MAX_ALPHA,
    MIN_ALPHA,
    NEO_SUBTILE_SIZE,
    TERMINATION_THRESHOLD,
    RasterResult,
    RasterStats,
)
from .sorting import SortedTiles
from .tiling import TileAssignment, TileGrid


def _subtile_bitmaps(
    means: np.ndarray,
    radii: np.ndarray,
    x0: int,
    y0: int,
    x1: int,
    y1: int,
    subtile: int,
) -> np.ndarray:
    """Conservative circle-vs-rectangle intersection bitmaps, batched.

    Returns a ``(n, subtiles_y, subtiles_x)`` boolean array for all ``n``
    Gaussians at once.  The per-element math matches the scalar formulation
    (clamp the center to each subtile rect; overlap iff the clamped point is
    within the radius), so the batched result is bitwise-identical to a
    per-Gaussian loop.
    """
    sxs = np.arange(x0, x1, subtile)
    sys_ = np.arange(y0, y1, subtile)
    cx = means[:, 0][:, None]
    cy = means[:, 1][:, None]
    qx = np.clip(cx, sxs[None, :], np.minimum(sxs + subtile, x1)[None, :])
    qy = np.clip(cy, sys_[None, :], np.minimum(sys_ + subtile, y1)[None, :])
    dx2 = (qx - cx) ** 2  # (n, subtiles_x)
    dy2 = (qy - cy) ** 2  # (n, subtiles_y)
    r2 = radii * radii
    return dx2[:, None, :] + dy2[:, :, None] <= r2[:, None, None]


def rasterize_tile(
    framebuffer: Framebuffer,
    projected: ProjectedGaussians,
    rows: np.ndarray,
    bounds: tuple[int, int, int, int],
    subtile_size: int | None = NEO_SUBTILE_SIZE,
    termination: float = TERMINATION_THRESHOLD,
) -> tuple[np.ndarray, RasterStats]:
    """Scalar per-Gaussian blending loop (frozen pre-chunking reference)."""
    x0, y0, x1, y1 = bounds
    stats = RasterStats()
    n = rows.shape[0]
    if n == 0 or x0 >= x1 or y0 >= y1:
        return np.zeros(n, dtype=bool), stats

    px = np.arange(x0, x1) + 0.5
    py = np.arange(y0, y1) + 0.5
    trans = framebuffer.transmittance[y0:y1, x0:x1]
    color = framebuffer.color[y0:y1, x0:x1]

    means = projected.means2d[rows]
    conics = projected.conic[rows]
    radii = projected.radii[rows]
    opacities = projected.opacities[rows]
    colors = projected.colors[rows]

    sub = subtile_size
    if sub is not None:
        bitmaps = _subtile_bitmaps(means, radii, x0, y0, x1, y1, sub)
        stats.subtile_tests += bitmaps.size
        subtile_hits = np.count_nonzero(bitmaps, axis=(1, 2)).astype(np.int64)
        valid = subtile_hits > 0
        stats.subtile_hits += int(subtile_hits.sum())
    else:
        qx = np.clip(means[:, 0], x0, x1)
        qy = np.clip(means[:, 1], y0, y1)
        dist2 = (qx - means[:, 0]) ** 2 + (qy - means[:, 1]) ** 2
        valid = dist2 <= radii**2
        subtile_hits = valid.astype(np.int64)

    for i in range(n):
        if trans.max() < termination:
            stats.early_terminated_tiles += 1
            break
        if not valid[i]:
            continue
        stats.gaussians_processed += 1
        cx, cy = means[i]
        r = radii[i]
        gx0 = max(int(np.floor(cx - r)) - x0, 0)
        gx1 = min(int(np.ceil(cx + r)) - x0 + 1, x1 - x0)
        gy0 = max(int(np.floor(cy - r)) - y0, 0)
        gy1 = min(int(np.ceil(cy + r)) - y0 + 1, y1 - y0)
        if gx0 >= gx1 or gy0 >= gy1:
            continue

        dx = px[gx0:gx1] - cx
        dy = py[gy0:gy1] - cy
        a, b, c = conics[i]
        power = -0.5 * (
            a * dx[None, :] ** 2 + c * dy[:, None] ** 2
        ) - b * dy[:, None] * dx[None, :]
        stats.blend_ops += power.size
        alpha = np.minimum(opacities[i] * np.exp(np.minimum(power, 0.0)), MAX_ALPHA)
        alpha[power > 0] = 0.0
        significant = alpha >= MIN_ALPHA
        if not significant.any():
            continue
        alpha = np.where(significant, alpha, 0.0)

        t_block = trans[gy0:gy1, gx0:gx1]
        weight = t_block * alpha
        color[gy0:gy1, gx0:gx1] += weight[..., None] * colors[i][None, None, :]
        trans[gy0:gy1, gx0:gx1] = t_block * (1.0 - alpha)

    return valid, stats


def rasterize(
    sorted_tiles: SortedTiles,
    projected: ProjectedGaussians,
    grid: TileGrid,
    background: tuple[float, float, float] = (0.0, 0.0, 0.0),
    subtile_size: int | None = NEO_SUBTILE_SIZE,
    termination: float = TERMINATION_THRESHOLD,
) -> RasterResult:
    """Full-frame rasterization through the scalar per-Gaussian loop."""
    framebuffer = Framebuffer(width=grid.width, height=grid.height, background=background)
    result = RasterResult(image=np.empty(0))
    for tile in range(grid.num_tiles):
        rows = sorted_tiles.rows_for(tile)
        if rows.shape[0] == 0:
            continue
        valid, stats = rasterize_tile(
            framebuffer,
            projected,
            rows,
            grid.tile_pixel_bounds(tile),
            subtile_size=subtile_size,
            termination=termination,
        )
        result.valid_bits[tile] = valid
        result.stats.merge(stats)
    result.image = framebuffer.finalize()
    return result


def sort_tiles(assignment: TileAssignment) -> SortedTiles:
    """Per-tile lexsort loop (frozen pre-batching reference)."""
    tile_rows: list[np.ndarray] = []
    tile_ids: list[np.ndarray] = []
    tile_depths: list[np.ndarray] = []
    proj = assignment.projected
    for tile in range(assignment.num_tiles):
        rows = assignment.rows_for(tile)
        depths = proj.depths[rows]
        ids = proj.ids[rows]
        order = np.lexsort((ids, depths))
        tile_rows.append(rows[order])
        tile_ids.append(ids[order])
        tile_depths.append(depths[order])
    return SortedTiles.from_tile_lists(tile_rows, tile_ids, tile_depths)


def kendall_tau_distance(order_a: np.ndarray, order_b: np.ndarray) -> float:
    """Rank-dict Kendall-tau distance (frozen pre-vectorization reference)."""
    order_a = np.asarray(order_a)
    order_b = np.asarray(order_b)
    if order_a.shape != order_b.shape:
        raise ValueError("orderings must have equal length")
    n = order_a.shape[0]
    if n < 2:
        return 0.0
    if not np.array_equal(np.sort(order_a), np.sort(order_b)):
        raise ValueError("orderings must contain the same IDs")

    rank_in_b = {int(g): i for i, g in enumerate(order_b)}
    sequence = np.fromiter((rank_in_b[int(g)] for g in order_a), dtype=np.int64, count=n)
    inversions = _count_inversions(sequence)
    return inversions / (n * (n - 1) / 2)


def _count_inversions(seq: np.ndarray) -> int:
    """Count inversions with an iterative bottom-up merge sort."""
    seq = seq.copy()
    buffer = np.empty_like(seq)
    n = seq.shape[0]
    inversions = 0
    width = 1
    while width < n:
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                if seq[i] <= seq[j]:
                    buffer[k] = seq[i]
                    i += 1
                else:
                    buffer[k] = seq[j]
                    inversions += mid - i
                    j += 1
                k += 1
            buffer[k : k + mid - i] = seq[i:mid]
            k += mid - i
            buffer[k : k + hi - j] = seq[j:hi]
            seq[lo:hi] = buffer[lo:hi]
        width *= 2
    return inversions
