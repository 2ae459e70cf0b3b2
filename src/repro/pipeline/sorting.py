"""Reference sorting stage (pipeline stage 3).

This module provides the *functional* ground truth: exact per-tile depth
ordering computed with numpy's sort.  Neo's reuse-and-update strategies in
:mod:`repro.core` are validated against it, and the quality experiments
(Table 2, Fig. 19) compare images rendered with approximate orders against
images rendered with this exact order.

:class:`SortedTiles` stores the depth-sorted tables in the flat tile-stream
layout (:class:`~repro.pipeline.tiling.TileStream`): one ``rows`` stream
plus aligned flat ``ids`` / ``depths`` arrays sharing its offsets.
"""

from __future__ import annotations

import numpy as np

from .tiling import TileAssignment, TileStream


class SortedTiles:
    """Depth-sorted per-tile Gaussian tables in tile-stream layout.

    Attributes
    ----------
    stream:
        :class:`TileStream` of row indices into the frame's
        :class:`ProjectedGaussians`, sorted front-to-back by depth within
        each tile.
    ids:
        Flat global Gaussian IDs aligned with ``stream.values``.
    depths:
        Flat depths aligned with ``stream.values`` (non-decreasing within
        each tile).
    """

    def __init__(
        self,
        stream: TileStream,
        ids: np.ndarray,
        depths: np.ndarray,
    ) -> None:
        if ids.shape[0] != stream.num_pairs or depths.shape[0] != stream.num_pairs:
            raise ValueError("ids and depths must align with the stream")
        self.stream = stream
        self.ids = ids
        self.depths = depths

    @classmethod
    def from_tile_lists(
        cls,
        tile_rows: list[np.ndarray],
        tile_ids: list[np.ndarray],
        tile_depths: list[np.ndarray],
    ) -> "SortedTiles":
        """Build from per-tile row, ID and depth lists."""
        if not (len(tile_rows) == len(tile_ids) == len(tile_depths)):
            raise ValueError("per-tile lists must have equal length")
        stream = TileStream.from_lists(tile_rows)
        if stream.num_pairs:
            ids = np.concatenate(tile_ids)
            depths = np.concatenate(tile_depths)
        else:
            ids = np.empty(0, dtype=np.int64)
            depths = np.empty(0, dtype=np.float64)
        return cls(stream=stream, ids=ids, depths=depths)

    @property
    def num_tiles(self) -> int:
        """Number of tiles covered."""
        return self.stream.num_tiles

    @property
    def num_pairs(self) -> int:
        """Total tile-Gaussian pairs in the sorted tables."""
        return self.stream.num_pairs

    def counts(self) -> np.ndarray:
        """Per-tile table lengths."""
        return self.stream.counts()

    def rows_for(self, tile: int) -> np.ndarray:
        """Tile ``tile``'s sorted row indices (zero-copy view)."""
        return self.stream.rows_for(tile)

    def ids_for(self, tile: int) -> np.ndarray:
        """Tile ``tile``'s sorted global Gaussian IDs (zero-copy view)."""
        return self.ids[self.stream.offsets[tile] : self.stream.offsets[tile + 1]]

    def depths_for(self, tile: int) -> np.ndarray:
        """Tile ``tile``'s sorted depths (zero-copy view)."""
        return self.depths[self.stream.offsets[tile] : self.stream.offsets[tile + 1]]


def sort_tiles(assignment: TileAssignment) -> SortedTiles:
    """Exactly sort every tile's Gaussians front-to-back by depth.

    Ties break on global Gaussian ID so the order is deterministic, mirroring
    the stable key construction (depth | ID) of the CUDA radix sort.

    All tiles are sorted in *one* concatenated pass instead of a ``lexsort``
    call per tile: the frame's Gaussians are ranked once by ``(depth, ID)``
    (a ``lexsort`` over the ~m projected Gaussians rather than the ~n >> m
    duplicated pairs), and the pair stream is then ordered by the integer key
    ``tile * m + rank`` — unique per pair, since a Gaussian appears at most
    once per tile, so a plain ``argsort`` suffices and no float comparisons
    touch the hot sort.  Within a tile, ordering by rank is ordering by
    ``(depth, ID)``, so the depth-sorted stream shares the assignment
    stream's offsets — pinned by the golden test against
    :func:`repro.pipeline.reference.sort_tiles`.
    """
    proj = assignment.projected
    m = len(proj)
    stream = assignment.stream
    all_rows = stream.values
    tile_of = stream.tile_of()

    depth_order = np.lexsort((proj.ids, proj.depths))
    rank = np.empty(m, dtype=np.int64)
    rank[depth_order] = np.arange(m, dtype=np.int64)
    pair_ranks = rank[all_rows]
    if stream.num_tiles * max(m, 1) < np.iinfo(np.int64).max:
        order = np.argsort(tile_of * m + pair_ranks)
    else:  # overflow-proof fallback; unreachable for any realistic grid
        order = np.lexsort((pair_ranks, tile_of))

    rows_sorted = all_rows[order]
    return SortedTiles(
        stream=stream.with_values(rows_sorted),
        ids=proj.ids[rows_sorted],
        depths=proj.depths[rows_sorted],
    )


def is_depth_sorted(depths: np.ndarray, tolerance: float = 0.0) -> bool:
    """True if ``depths`` is non-decreasing (within ``tolerance``)."""
    if depths.shape[0] < 2:
        return True
    return bool(np.all(np.diff(depths) >= -tolerance))


def order_quality(approx_depths: np.ndarray) -> float:
    """Fraction of adjacent pairs already in non-decreasing depth order.

    1.0 means perfectly sorted; used to quantify how far an incremental
    ordering has drifted from the exact one.
    """
    n = approx_depths.shape[0]
    if n < 2:
        return 1.0
    good = int(np.count_nonzero(np.diff(approx_depths) >= 0))
    return good / (n - 1)


def kendall_tau_distance(order_a: np.ndarray, order_b: np.ndarray) -> float:
    """Normalized Kendall-tau distance between two orderings of the same set.

    0.0 means identical order, 1.0 fully reversed.  Computed via merge-sort
    inversion counting in O(n log n); both inputs must be permutations of the
    same ID set.
    """
    order_a = np.asarray(order_a)
    order_b = np.asarray(order_b)
    if order_a.shape != order_b.shape:
        raise ValueError("orderings must have equal length")
    n = order_a.shape[0]
    if n < 2:
        return 0.0
    sorted_a = np.sort(order_a)
    if not np.array_equal(sorted_a, np.sort(order_b)):
        raise ValueError("orderings must contain the same IDs")
    if np.any(sorted_a[1:] == sorted_a[:-1]):
        # A duplicated ID has no well-defined rank; the scalar dict lookup
        # silently resolved it last-wins, so reject it outright instead.
        raise ValueError("orderings must not contain duplicate IDs")

    # Rank-in-b lookup without a Python dict: sort b's IDs once, then map
    # every ID in a to its position in b via binary search (both lists hold
    # the same ID set, so every lookup hits exactly).
    by_id = np.argsort(order_b, kind="stable")
    sequence = by_id[np.searchsorted(order_b[by_id], order_a)]
    inversions = _count_inversions(sequence)
    return inversions / (n * (n - 1) / 2)


def _count_inversions(seq: np.ndarray) -> int:
    """Count inversions of a permutation of ``0..n-1`` in O(n log^2 n).

    Uses merge sort's level decomposition without the Python merge loop: at
    the level of block size ``2 * width``, each block's left and right
    halves preserve the original relative order of their elements, so every
    inversion is a (left, right) cross pair at exactly one level.  Cross
    pairs for *all* blocks of a level are counted with a single flat
    ``searchsorted`` — each block's values are offset into a disjoint range
    so the concatenation of the per-block sorted left halves stays globally
    sorted.  Equivalent to the scalar bottom-up merge sort preserved in
    :func:`repro.pipeline.reference.kendall_tau_distance`.
    """
    seq = np.asarray(seq, dtype=np.int64)
    n = seq.shape[0]
    if n < 2:
        return 0
    inversions = 0
    width = 1
    while width < n:
        block = 2 * width
        num_blocks = -(-n // block)
        # Pad to whole blocks with a sentinel above every real value; the
        # sentinel never counts on either side.
        padded = np.full(num_blocks * block, n, dtype=np.int64)
        padded[:n] = seq
        resh = padded.reshape(num_blocks, block)
        left = np.sort(resh[:, :width], axis=1)
        right = resh[:, width:]

        offsets = np.arange(num_blocks, dtype=np.int64) * (n + 1)
        flat_left = (left + offsets[:, None]).ravel()
        flat_right = (right + offsets[:, None]).ravel()
        le_counts = np.searchsorted(flat_left, flat_right, side="right") - np.repeat(
            np.arange(num_blocks, dtype=np.int64) * width, width
        )
        # Left elements greater than a right element r are the block's real
        # left residents minus those <= r.
        real_left = np.clip(n - np.arange(num_blocks, dtype=np.int64) * block, 0, width)
        gt = np.repeat(real_left, width) - le_counts
        inversions += int(gt[right.ravel() < n].sum())
        width = block
    return inversions
