"""Temporal-similarity analysis of Gaussian tables (paper Figs. 6-7).

Given per-tile sorted ID lists from consecutive frames (functional pipeline)
or a :class:`~repro.hw.workload.WorkloadModel` (paper-scale), compute:

* the per-tile proportion of shared Gaussians between consecutive frames and
  its CDF (Fig. 6);
* the distribution of per-Gaussian sort-order displacement (Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..pipeline.sorting import SortedTiles


@dataclass(frozen=True)
class SimilarityStats:
    """Temporal-similarity summary between two consecutive frames."""

    shared_fractions: np.ndarray
    order_differences: np.ndarray

    def cdf(self, grid: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(x, F(x)) — CDF of the per-tile shared fraction (Fig. 6)."""
        if grid is None:
            grid = np.linspace(0.5, 1.0, 101)
        values = np.sort(self.shared_fractions)
        cdf = np.searchsorted(values, grid, side="right") / max(values.shape[0], 1)
        return grid, cdf

    def fraction_of_tiles_retaining(self, threshold: float) -> float:
        """Share of tiles keeping at least ``threshold`` of their Gaussians."""
        if self.shared_fractions.size == 0:
            return 0.0
        return float(np.mean(self.shared_fractions >= threshold))

    def order_percentiles(self, percentiles=(90, 95, 99)) -> dict[int, float]:
        """Order-difference percentiles (Fig. 7's three bars)."""
        if self.order_differences.size == 0:
            return {int(p): 0.0 for p in percentiles}
        values = np.percentile(self.order_differences, percentiles)
        return {int(p): float(v) for p, v in zip(percentiles, values)}


def _segment_ranks(local_pos: np.ndarray, seg_id: np.ndarray, seg_starts: np.ndarray) -> np.ndarray:
    """Rank of each entry's position within its segment (double argsort).

    ``seg_id`` must be non-decreasing, so each segment occupies the same
    contiguous index block before and after the ``(segment, position)``
    lexsort — the in-segment rank is then the global sorted index minus the
    segment's start.
    """
    total = local_pos.shape[0]
    order = np.lexsort((local_pos, seg_id))
    ranks = np.empty(total, dtype=np.int64)
    ranks[order] = np.arange(total, dtype=np.int64) - seg_starts[seg_id[order]]
    return ranks


def frame_similarity(prev: SortedTiles, cur: SortedTiles) -> SimilarityStats:
    """Similarity statistics between two consecutive functional frames.

    Computed as one segmented array program over the frames' flat ID streams
    instead of a per-tile Python loop: both streams are keyed by
    ``tile * M + id`` (``M`` = one past the largest ID), sorted once, and the
    shared set, per-tile retention counts, and segmented double-argsort
    ranks all come from batched ``searchsorted``/``bincount``/``lexsort``
    passes.  Output is bit-identical to the frozen per-tile loop preserved
    in :mod:`repro.metrics.reference`: sums of 0/1 indicators are exact in
    any order, the retention division sees identical operands, and shared
    entries emerge in the same (ascending tile, ascending ID) order
    ``np.intersect1d`` produced.  Inputs the composite key cannot represent
    (negative IDs, duplicate IDs within a tile, key overflow) raise
    ``ValueError``; the pipeline never produces them.
    """
    if prev.num_tiles != cur.num_tiles:
        raise ValueError("frames must cover the same tile grid")
    num_tiles = prev.num_tiles
    prev_counts = prev.stream.counts()

    lo = 0
    hi = -1
    if prev.num_pairs:
        lo = min(lo, int(prev.ids.min()))
        hi = max(hi, int(prev.ids.max()))
    if cur.num_pairs:
        lo = min(lo, int(cur.ids.min()))
        hi = max(hi, int(cur.ids.max()))
    if lo < 0:
        raise ValueError(f"Gaussian IDs must be non-negative, got {lo}")
    m = hi + 2  # strict upper bound on any ID, so keys cannot collide
    if num_tiles and num_tiles * m >= np.iinfo(np.int64).max:
        raise ValueError(
            f"tile * id key overflows int64 ({num_tiles} tiles, largest ID {hi})"
        )

    kp = prev.stream.tile_of() * m + prev.ids
    kc = cur.stream.tile_of() * m + cur.ids
    op = np.argsort(kp)
    oc = np.argsort(kc)
    skp = kp[op]
    skc = kc[oc]
    if np.any(skp[1:] == skp[:-1]) or np.any(skc[1:] == skc[:-1]):
        raise ValueError("duplicate Gaussian IDs within a tile")

    if skc.shape[0]:
        pos = np.searchsorted(skc, skp)
        shared_mask = skc[np.minimum(pos, skc.shape[0] - 1)] == skp
    else:
        shared_mask = np.zeros(skp.shape[0], dtype=bool)

    tile_sorted = prev.stream.tile_of()[op]
    shared_counts = np.bincount(tile_sorted[shared_mask], minlength=num_tiles)
    nonempty = prev_counts > 0
    fractions = shared_counts[nonempty] / prev_counts[nonempty]

    # Order differences only exist for tiles sharing >= 2 Gaussians.
    tile_sh = tile_sorted[shared_mask]
    keep = shared_counts[tile_sh] >= 2
    if not np.any(keep):
        return SimilarityStats(shared_fractions=fractions, order_differences=np.empty(0))

    idx_p = op[shared_mask][keep]  # flat prev entry of each kept shared Gaussian
    keys = skp[shared_mask][keep]
    tile_k = tile_sh[keep]
    idx_c = oc[np.searchsorted(skc, keys)]

    local_p = idx_p - prev.stream.offsets[tile_k]
    local_c = idx_c - cur.stream.offsets[tile_k]

    new_seg = np.empty(tile_k.shape[0], dtype=bool)
    new_seg[0] = True
    new_seg[1:] = tile_k[1:] != tile_k[:-1]
    seg_id = np.cumsum(new_seg) - 1
    seg_starts = np.flatnonzero(new_seg)

    prev_rank = _segment_ranks(local_p, seg_id, seg_starts)
    cur_rank = _segment_ranks(local_c, seg_id, seg_starts)
    return SimilarityStats(
        shared_fractions=fractions,
        order_differences=np.abs(prev_rank - cur_rank).astype(np.float64),
    )


def sequence_similarity(frames: list[SortedTiles]) -> SimilarityStats:
    """Pool similarity statistics over every consecutive frame pair."""
    if len(frames) < 2:
        raise ValueError("need at least two frames")
    fractions = []
    diffs = []
    for prev, cur in zip(frames, frames[1:]):
        stats = frame_similarity(prev, cur)
        fractions.append(stats.shared_fractions)
        if stats.order_differences.size:
            diffs.append(stats.order_differences)
    return SimilarityStats(
        shared_fractions=np.concatenate(fractions) if fractions else np.empty(0),
        order_differences=np.concatenate(diffs) if diffs else np.empty(0),
    )
