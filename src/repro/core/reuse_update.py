"""Reuse-and-update sorting across frames (paper section 4, Figure 8).

Instead of sorting every tile from scratch, Neo carries each tile's
Gaussian table — ``(ID, depth, valid)`` entries in approximate depth
order — from frame to frame and updates it:

1. **Reordering** — Dynamic Partial Sorting of the previous frame's table
   (with depths refreshed by the previous rasterization pass).
2. **Insertion** — newly visible Gaussians ("incoming") are collected by the
   preprocessing step, conventionally sorted (they are few), and merged in.
3. **Deletion** — entries whose valid bit was cleared by the previous
   frame's rasterization (no subtile intersection, or culled entirely) are
   filtered out during the same merge (lazy deletion in the MSU+).
4. **Deferred depth update** — after rasterization, depths in the table are
   overwritten with the values the rasterizer already fetched, so the next
   frame sorts on one-frame-stale depths instead of paying a second memory
   pass.

**State layout.**  All tables live in one :class:`TableStream`: a
:class:`~repro.pipeline.tiling.TileStream` of Gaussian IDs (per-tile CSR
segments) with aligned flat ``depths`` and ``valid`` arrays.  Each step runs
once per frame over every tile as a segmented array program, not as a loop
over tiles:

* a tile seen for the first time (or whose table emptied) is initialised
  by one stable sort of its pairs on ``(tile, depth)``;
* reordering is one stable sort on ``(tile, chunk, depth)``, with each
  tile's alternating half-chunk grid from
  :func:`~repro.core.dynamic_partial_sort.chunk_ids`;
* incoming pairs are those whose ``tile << 32 | id`` key one
  ``searchsorted`` does not find among the valid table entries' sorted keys;
* the MSU+ merge inserts each incoming entry after every table entry whose
  *running maximum* depth within the tile does not exceed it — a streaming
  merge of a table that reordering left only chunk-sorted;
* each table entry's projected row comes from one gather of a dense
  scene-sized ID -> row index (:func:`lookup_rows`); valid bits scatter the
  rasterizer's bits to the rendered entries, and the deferred depth update
  gathers the projected depths at those rows.

Tiles past the current frame's grid (after a resolution change) keep their
tables untouched until a grid covers them again.
:mod:`repro.core.reference` keeps the per-tile loop this replaced as the
bit-identity pin.

The :class:`ReuseUpdateSorter` implements the pipeline's
:class:`~repro.pipeline.renderer.SortStrategy` protocol and accounts sorting
DRAM traffic per frame for the hardware models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..pipeline.rasterizer import RasterResult
from ..pipeline.sorting import SortedTiles
from ..pipeline.tiling import TileAssignment, TileStream
from .dynamic_partial_sort import (
    DEFAULT_CHUNK_SIZE,
    PartialSortStats,
    segmented_partial_sort,
)
from .gaussian_table import TABLE_ENTRY_BYTES


@dataclass
class SortTraffic:
    """Off-chip traffic generated by one frame of the sorting stage (bytes).

    Attributes
    ----------
    table_read / table_write:
        Streaming the per-tile Gaussian tables through the Sorting Engine.
    incoming_write / incoming_read:
        Incoming-Gaussian tables written by preprocessing and read back by
        the Sorting Engine.
    depth_refresh:
        Extra pass fetching fresh depths (zero when the deferred depth
        update is enabled — that is the point of the optimization).
    """

    table_read: int = 0
    table_write: int = 0
    incoming_write: int = 0
    incoming_read: int = 0
    depth_refresh: int = 0

    @property
    def total_bytes(self) -> int:
        """Total sorting-stage DRAM traffic for the frame."""
        return (
            self.table_read
            + self.table_write
            + self.incoming_write
            + self.incoming_read
            + self.depth_refresh
        )

    def add(self, other: "SortTraffic") -> None:
        """Accumulate another frame/tile's traffic."""
        self.table_read += other.table_read
        self.table_write += other.table_write
        self.incoming_write += other.incoming_write
        self.incoming_read += other.incoming_read
        self.depth_refresh += other.depth_refresh


@dataclass
class FrameSortStats:
    """Per-frame bookkeeping of the reuse-and-update machinery."""

    frame_index: int
    tiles_reused: int = 0
    tiles_initialized: int = 0
    incoming_entries: int = 0
    deleted_entries: int = 0
    depth_updates: int = 0
    table_entries_after: int = 0
    reorder: PartialSortStats = field(default_factory=PartialSortStats)
    traffic: SortTraffic = field(default_factory=SortTraffic)

    @property
    def reuse_fraction(self) -> float:
        """Share of this frame's table entries carried over from the past."""
        total = self.table_entries_after
        if total == 0:
            return 0.0
        return max(0.0, 1.0 - self.incoming_entries / total)


def full_sort_traffic(counts: np.ndarray, chunk_size: int) -> SortTraffic:
    """Traffic of conventionally sorting tables of ``counts`` entries.

    The closed form of :func:`~repro.core.dynamic_partial_sort.full_sort`'s
    accounting, vectorized over tables: a table of ``n`` entries streams
    ``n * (1 + ceil(log2(ceil(n / C))))`` entries each way.
    """
    counts = np.asarray(counts, dtype=np.int64)
    counts = counts[counts > 0]
    chunks = -(-counts // chunk_size)
    merge_levels = np.maximum(np.ceil(np.log2(chunks)), 0).astype(np.int64)
    nbytes = int((counts * (1 + merge_levels)).sum()) * TABLE_ENTRY_BYTES
    return SortTraffic(table_read=nbytes, table_write=nbytes)


def lookup_rows(projected_ids: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Row of each of ``ids`` in a frame's projected arrays; -1 if not projected.

    IDs are scene indices and a frame projects each at most once, so a
    dense scene-sized ID -> row index answers every query with one scatter
    and one gather.
    """
    size = 1 + max(int(projected_ids.max(initial=-1)), int(ids.max(initial=-1)))
    index = np.full(size, -1, dtype=np.int64)
    index[projected_ids] = np.arange(projected_ids.shape[0], dtype=np.int64)
    return index[ids]


@dataclass(frozen=True)
class TableStream:
    """Every tile's Gaussian table in one flat tile-stream layout.

    Attributes
    ----------
    stream:
        :class:`TileStream` of global Gaussian IDs, tile ``t``'s table in
        (approximate) depth order at ``offsets[t]:offsets[t + 1]``.
    depths:
        Depth keys aligned with the IDs; may be one frame stale under the
        deferred depth update.
    valid:
        Valid bits aligned with the IDs; ``False`` marks entries the next
        merge drops (lazy deletion).
    """

    stream: TileStream
    depths: np.ndarray
    valid: np.ndarray

    @classmethod
    def empty(cls) -> "TableStream":
        """No tables at all (a sorter that has seen no frame)."""
        return cls(
            stream=TileStream.empty(0),
            depths=np.empty(0, dtype=np.float64),
            valid=np.empty(0, dtype=bool),
        )

    def __len__(self) -> int:
        return self.stream.num_pairs

    @property
    def num_tiles(self) -> int:
        """Tiles holding a table (the largest grid seen so far)."""
        return self.stream.num_tiles

    @property
    def ids(self) -> np.ndarray:
        """Flat Gaussian IDs of every table."""
        return self.stream.values

    def ids_for(self, tile: int) -> np.ndarray:
        """Tile ``tile``'s table IDs (zero-copy view)."""
        return self.stream.rows_for(tile)

    def depths_for(self, tile: int) -> np.ndarray:
        """Tile ``tile``'s table depths (zero-copy view)."""
        return self.depths[self.stream.offsets[tile] : self.stream.offsets[tile + 1]]

    def valid_for(self, tile: int) -> np.ndarray:
        """Tile ``tile``'s valid bits (zero-copy view)."""
        return self.valid[self.stream.offsets[tile] : self.stream.offsets[tile + 1]]


class ReuseUpdateSorter:
    """Stateful reuse-and-update sorting strategy (Neo's algorithm).

    Parameters
    ----------
    chunk_size:
        On-chip chunk capacity for Dynamic Partial Sorting (paper: 256).
    passes:
        Off-chip reorder passes per frame (paper adopts 1).
    defer_depth_update:
        If ``True`` (Neo), depths are refreshed for free during
        rasterization and sorting uses one-frame-stale values.  If
        ``False`` (ablation), an explicit depth-refresh pass is charged
        before reordering.
    """

    name = "neo"

    def __init__(
        self,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        passes: int = 1,
        defer_depth_update: bool = True,
    ) -> None:
        if chunk_size < 2:
            raise ValueError("chunk_size must be >= 2")
        self.chunk_size = chunk_size
        self.passes = passes
        self.defer_depth_update = defer_depth_update
        self.table = TableStream.empty()
        self.frame_stats: list[FrameSortStats] = []
        self._projected_depths: np.ndarray | None = None
        self._rows: np.ndarray | None = None

    # ------------------------------------------------------------------
    # SortStrategy protocol
    # ------------------------------------------------------------------
    def sort_frame(self, assignment: TileAssignment, frame_index: int) -> SortedTiles:
        """Run reordering + insertion + deletion for every tile at once."""
        stats = FrameSortStats(frame_index=frame_index)
        proj = assignment.projected
        num_tiles = assignment.num_tiles
        pairs = assignment.stream
        pair_ids = proj.ids[pairs.values]
        pair_depths = np.asarray(proj.depths, dtype=np.float64)[pairs.values]

        # The tables of this frame's tiles; any past its grid ride along.
        old = self.table
        head = old.stream.resized(num_tiles)
        n_table = head.num_pairs
        depths = old.depths[:n_table].copy()
        reused = head.counts() > 0
        stats.tiles_reused = int(np.count_nonzero(reused))
        stats.tiles_initialized = num_tiles - stats.tiles_reused

        if not self.defer_depth_update:
            # Ablation: explicit depth refresh costs an extra table pass.
            fresh = head.segment_intersect(head.values, pairs, pair_ids)
            depths[fresh.self_indices] = pair_depths[fresh.other_indices]
            stats.depth_updates += fresh.num_shared
            stats.traffic.depth_refresh += 2 * n_table * TABLE_ENTRY_BYTES

        # (1) Reordering via Dynamic Partial Sorting.  The permutation is
        # tracked through an index payload so IDs and valid bits travel with
        # their depths, as the hardware moves (ID|valid, depth) pairs.
        depths, perm, _ = segmented_partial_sort(
            depths,
            np.arange(n_table, dtype=np.int64),
            head.offsets,
            iteration=frame_index,
            chunk_size=self.chunk_size,
            passes=self.passes,
            stats=stats.reorder,
        )
        valid = old.valid[:n_table][perm]
        valid_table = head.with_values(head.values[perm]).compress(valid)
        stats.traffic.table_read += n_table * TABLE_ENTRY_BYTES

        # (2) Insertion: incoming = pairs in a tile now but absent from its
        # valid table entries (the duplication unit's verification step).
        # Invalidated entries count as absent: the merge is about to drop
        # them, so a Gaussian re-entering after invalidation must come back
        # through the incoming path or it would vanish for a frame.  In a
        # tile without a table every pair is new and initialises it.  The
        # test is one search of the pairs' ``tile << 32 | id`` keys among the
        # valid table's sorted keys; the -1 sentinel matches no pair.
        pair_tiles = pairs.tile_of()
        pair_keys = pair_tiles << 32 | pair_ids
        table_keys = np.append(np.sort(valid_table.tile_of() << 32 | valid_table.values), -1)
        known = table_keys[np.searchsorted(table_keys[:-1], pair_keys)] == pair_keys
        new_at = np.flatnonzero(~known)
        new_tiles = pair_tiles[new_at]
        incoming = reused[new_tiles]
        n_incoming = int(np.count_nonzero(incoming))
        stats.incoming_entries += n_incoming
        stats.traffic.incoming_write += n_incoming * TABLE_ENTRY_BYTES
        stats.traffic.incoming_read += n_incoming * TABLE_ENTRY_BYTES
        stats.traffic.add(full_sort_traffic(pairs.counts()[~reused], self.chunk_size))
        # Incoming entries sort on (depth, ID); an initialised tile's
        # conventional sort is stable on (depth, arrival order).
        tie = np.where(incoming, pair_ids[new_at], new_at)
        order = np.lexsort((tie, pair_depths[new_at], new_tiles))
        new_at = new_at[order]

        # (3) Deletion folded into the merge: the MSU+ drops invalid table
        # entries while splicing the new stream in.  The merged table is
        # written back as part of the single off-chip pass.
        n_valid = valid_table.num_pairs
        stats.deleted_entries += n_table - n_valid
        stats.traffic.table_write += (n_valid + n_incoming) * TABLE_ENTRY_BYTES
        merged, merged_depths = _merge_tables(
            valid_table, depths[valid], new_tiles[order], pair_ids[new_at], pair_depths[new_at]
        )
        stats.table_entries_after += merged.num_pairs

        self.table = _with_tail(merged, merged_depths, old)
        self._projected_depths = proj.depths
        self._rows = lookup_rows(proj.ids, self.table.ids)
        self.frame_stats.append(stats)

        # Render list: entries without a projection this frame (culled
        # Gaussians awaiting lazy deletion) are skipped — the hardware
        # analogue is the ITU immediately finding no intersection for them.
        rows = self._rows[: merged.num_pairs]
        found = rows >= 0
        rendered = merged.compress(found)
        return SortedTiles(
            stream=rendered.with_values(rows[found]),
            ids=rendered.values,
            depths=merged_depths[found],
        )

    def observe_raster(
        self, frame_index: int, sorted_tiles: SortedTiles, raster: RasterResult
    ) -> None:
        """Apply rasterization feedback: valid bits and the deferred depth update."""
        if self._rows is None:
            return
        table = self.table

        # Valid bits: an entry stays valid only if it was rendered this
        # frame AND intersected at least one subtile (cumulative-OR of the
        # ITU bitmaps).  Entries with no current projection (culled) are
        # invalid by construction.
        survived = np.ones(sorted_tiles.num_pairs, dtype=bool)
        offsets = sorted_tiles.stream.offsets.tolist()
        for tile, bits in raster.valid_bits.items():
            if tile < len(offsets) - 1 and bits.shape[0] == offsets[tile + 1] - offsets[tile]:
                survived[offsets[tile] : offsets[tile + 1]] = bits
        # The render list is the merged table with unprojected entries
        # skipped, so rendered pair j *is* the j-th found table entry.
        merged_pairs = table.stream.offsets[sorted_tiles.stream.num_tiles]
        rendered_at = np.flatnonzero(self._rows[:merged_pairs] >= 0)
        valid = np.zeros(len(table), dtype=bool)
        valid[rendered_at[survived]] = True

        # Deferred depth update: rasterization fetched every rendered
        # Gaussian's features, so refreshed depths are free (traffic-wise).
        depths = table.depths
        if self.defer_depth_update:
            found = self._rows >= 0
            depths[found] = self._projected_depths[self._rows[found]]
            self.frame_stats[-1].depth_updates += int(np.count_nonzero(found))
        self.table = TableStream(stream=table.stream, depths=depths, valid=valid)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def total_traffic(self) -> SortTraffic:
        """Aggregate sorting traffic over all frames seen so far."""
        total = SortTraffic()
        for fs in self.frame_stats:
            total.add(fs.traffic)
        return total

    def reset(self) -> None:
        """Drop all cross-frame state (tables and statistics)."""
        self.table = TableStream.empty()
        self.frame_stats.clear()
        self._projected_depths = None
        self._rows = None


def _merge_tables(
    table: TileStream,
    table_depths: np.ndarray,
    new_tiles: np.ndarray,
    new_ids: np.ndarray,
    new_depths: np.ndarray,
) -> tuple[TileStream, np.ndarray]:
    """MSU+ merge of every tile's valid table entries with its new entries.

    The new entries arrive sorted on ``(tile, depth)``.  A streaming merge
    emits each one just before the first table entry deeper than it, i.e.
    after every entry whose running-maximum depth within its tile does not
    exceed it (table entries win ties).  Depths are ranked to integers so
    that one ``maximum.accumulate`` over ``tile * span + rank`` is the
    running maximum of every tile at once: a tile's keys all exceed the
    previous tile's, so each tile's maximum restarts at its own entries.
    """
    n_table = table.num_pairs
    _, rank = np.unique(np.concatenate([table_depths, new_depths]), return_inverse=True)
    span = np.int64(rank.max() + 1) if rank.size else np.int64(1)
    keys = np.concatenate([table.tile_of(), new_tiles]) * span + rank
    table_keys = np.maximum.accumulate(keys[:n_table])
    new_at = np.searchsorted(table_keys, keys[n_table:], side="right")
    new_at += np.arange(new_at.shape[0])
    from_table = np.ones(keys.shape[0], dtype=bool)
    from_table[new_at] = False

    ids = np.empty(keys.shape[0], dtype=np.int64)
    ids[from_table] = table.values
    ids[new_at] = new_ids
    depths = np.empty(keys.shape[0], dtype=np.float64)
    depths[from_table] = table_depths
    depths[new_at] = new_depths
    counts = table.counts() + np.bincount(new_tiles, minlength=table.num_tiles)
    offsets = np.zeros(table.num_tiles + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return TileStream(num_tiles=table.num_tiles, values=ids, offsets=offsets), depths


def _with_tail(merged: TileStream, depths: np.ndarray, old: TableStream) -> TableStream:
    """The merged tables, then ``old``'s tables of tiles past the merged grid."""
    valid = np.ones(merged.num_pairs, dtype=bool)
    if old.num_tiles <= merged.num_tiles:
        return TableStream(stream=merged, depths=depths, valid=valid)
    start = old.stream.offsets[merged.num_tiles]
    tail = old.stream.offsets[merged.num_tiles + 1 :] - start + merged.num_pairs
    stream = TileStream(
        num_tiles=old.num_tiles,
        values=np.concatenate([merged.values, old.ids[start:]]),
        offsets=np.concatenate([merged.offsets, tail]),
    )
    return TableStream(
        stream=stream,
        depths=np.concatenate([depths, old.depths[start:]]),
        valid=np.concatenate([valid, old.valid[start:]]),
    )
