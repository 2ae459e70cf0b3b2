"""Frozen per-tile reference for Neo's reuse-and-update sorter.

This module preserves the per-tile implementation of
:class:`repro.core.reuse_update.ReuseUpdateSorter` from before the sorter
became one segmented array program over a flat table stream: a Python loop
over tiles, one :class:`~repro.core.gaussian_table.GaussianTable` per tile
in a dict, and per-entry dict lookups for the render list and the valid
bits.  It mirrors :mod:`repro.pipeline.reference` and :mod:`repro.hw.reference`
and exists for two callers only:

* the **golden equivalence tests** (``tests/test_neo_reference.py``), which
  assert that the stream sorter is *bit-identical* to this loop — sorted
  ``rows``/``ids``/``depths`` streams, every :class:`FrameSortStats` field,
  the :class:`SortTraffic` ledger, and the rendered images;
* the ``neo_sort`` bench of ``repro bench``, which times this loop against
  the stream sorter.

Because this is a historical pin, it must only change when the algorithm
deliberately changes — keep it in lockstep with
:mod:`repro.core.reuse_update`.
"""

from __future__ import annotations

import numpy as np

from ..pipeline.rasterizer import RasterResult
from ..pipeline.sorting import SortedTiles
from ..pipeline.tiling import TileAssignment
from .dynamic_partial_sort import (
    DEFAULT_CHUNK_SIZE,
    PartialSortStats,
    dynamic_partial_sort,
    full_sort,
)
from .gaussian_table import TABLE_ENTRY_BYTES, GaussianTable
from .merge_unit import merge_sorted
from .reuse_update import FrameSortStats, SortTraffic


class ReuseUpdateSorter:
    """Per-tile reuse-and-update sorter: one ``GaussianTable`` per tile.

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
        self.tables: dict[int, GaussianTable] = {}
        self.frame_stats: list[FrameSortStats] = []
        self._last_assignment: TileAssignment | None = None

    # ------------------------------------------------------------------
    # SortStrategy protocol
    # ------------------------------------------------------------------
    def sort_frame(self, assignment: TileAssignment, frame_index: int) -> SortedTiles:
        """Run reordering + insertion + deletion for every tile."""
        stats = FrameSortStats(frame_index=frame_index)
        proj = assignment.projected
        # Map global Gaussian ID -> row in this frame's projected arrays.
        id_to_row = _build_id_index(proj.ids)

        tile_rows: list[np.ndarray] = []
        tile_ids: list[np.ndarray] = []
        tile_depths: list[np.ndarray] = []

        for tile in range(assignment.num_tiles):
            rows = assignment.rows_for(tile)
            current_ids = proj.ids[rows]
            current_depths = proj.depths[rows]
            table = self.tables.get(tile)

            if table is None or len(table) == 0:
                table = self._initialize_tile(current_ids, current_depths, stats)
            else:
                table = self._update_tile(
                    table, current_ids, current_depths, frame_index, stats
                )
            self.tables[tile] = table

            rows_out, ids_out, depths_out = _table_to_render_list(table, id_to_row)
            tile_rows.append(rows_out)
            tile_ids.append(ids_out)
            tile_depths.append(depths_out)
            stats.table_entries_after += len(table)

        self.frame_stats.append(stats)
        self._last_assignment = assignment
        return SortedTiles.from_tile_lists(tile_rows, tile_ids, tile_depths)

    def observe_raster(
        self, frame_index: int, sorted_tiles: SortedTiles, raster: RasterResult
    ) -> None:
        """Apply rasterization feedback: valid bits and the deferred depth update."""
        assignment = self._last_assignment
        if assignment is None:
            return
        proj = assignment.projected
        stats = self.frame_stats[-1] if self.frame_stats else None

        for tile, table in self.tables.items():
            if len(table) == 0:
                continue
            rendered_ids = (
                sorted_tiles.ids_for(tile)
                if tile < sorted_tiles.num_tiles
                else np.empty(0, dtype=np.int64)
            )
            raster_valid = raster.valid_bits.get(tile)

            # Valid bits: an entry stays valid only if it was rendered this
            # frame AND intersected at least one subtile (cumulative-OR of
            # the ITU bitmaps).  Entries with no current projection (culled)
            # are invalid by construction.
            surviving: set[int] = set()
            if raster_valid is not None and rendered_ids.shape[0] == raster_valid.shape[0]:
                surviving = {int(g) for g in rendered_ids[raster_valid]}
            elif rendered_ids.shape[0]:
                surviving = {int(g) for g in rendered_ids}
            new_valid = np.fromiter(
                (int(g) in surviving for g in table.ids), dtype=bool, count=len(table)
            )
            table.set_valid_bits(new_valid)

        # Deferred depth update: rasterization fetched every rendered
        # Gaussian's features, so refreshed depths are free (traffic-wise).
        if self.defer_depth_update:
            refreshed = self._refresh_depths(proj)
            if stats is not None:
                stats.depth_updates += refreshed

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _initialize_tile(
        self, ids: np.ndarray, depths: np.ndarray, stats: FrameSortStats
    ) -> GaussianTable:
        """First sight of a tile: conventional from-scratch sort."""
        stats.tiles_initialized += 1
        sort_stats = PartialSortStats()
        keys, values, sort_stats = full_sort(
            depths, ids, chunk_size=self.chunk_size, stats=sort_stats
        )
        stats.traffic.table_read += sort_stats.bytes_read
        stats.traffic.table_write += sort_stats.bytes_written
        return GaussianTable.from_sorted(values, keys)

    def _update_tile(
        self,
        table: GaussianTable,
        current_ids: np.ndarray,
        current_depths: np.ndarray,
        frame_index: int,
        stats: FrameSortStats,
    ) -> GaussianTable:
        """Steps 1-3 of Figure 8 for one tile."""
        stats.tiles_reused += 1

        if not self.defer_depth_update:
            # Ablation: explicit depth refresh costs an extra table pass.
            refreshed = table.update_depths(ids=current_ids, depths=current_depths)
            stats.depth_updates += refreshed
            stats.traffic.depth_refresh += 2 * len(table) * TABLE_ENTRY_BYTES

        # (1) Reordering via Dynamic Partial Sorting.  The permutation is
        # tracked through an index payload so valid bits travel with their
        # entries, exactly as the hardware moves (ID|valid, depth) pairs.
        perm_payload = np.arange(len(table), dtype=np.int64)
        sorted_depths, perm, _ = dynamic_partial_sort(
            table.depths,
            perm_payload,
            iteration=frame_index,
            chunk_size=self.chunk_size,
            passes=self.passes,
            stats=stats.reorder,
        )
        sorted_ids = table.ids[perm]
        sorted_valid = table.valid[perm]
        stats.traffic.table_read += len(table) * TABLE_ENTRY_BYTES

        # (2) Insertion: incoming = Gaussians in the tile now but absent
        # from the table (the duplication unit's verification step).
        # Entries whose valid bit was cleared count as absent: the merge is
        # about to drop them, so a Gaussian re-entering after invalidation
        # must come back through the incoming path or it would vanish for
        # a frame.
        member = np.isin(current_ids, table.ids[table.valid])
        incoming_ids = current_ids[~member]
        incoming_depths = current_depths[~member]
        stats.incoming_entries += incoming_ids.shape[0]
        if incoming_ids.shape[0]:
            order = np.lexsort((incoming_ids, incoming_depths))
            incoming_ids = incoming_ids[order]
            incoming_depths = incoming_depths[order]
            incoming_bytes = incoming_ids.shape[0] * TABLE_ENTRY_BYTES
            stats.traffic.incoming_write += incoming_bytes
            stats.traffic.incoming_read += incoming_bytes

        # (3) Deletion folded into the merge: the MSU+ drops invalid table
        # entries while splicing the incoming stream in.  The merged table
        # is written back as part of the single off-chip pass.
        before_invalid = len(table) - int(np.count_nonzero(sorted_valid))
        merged_depths, merged_ids = merge_sorted(
            sorted_depths,
            sorted_ids,
            incoming_depths,
            incoming_ids,
            valid_a=sorted_valid,
        )
        stats.deleted_entries += before_invalid
        stats.traffic.table_write += merged_ids.shape[0] * TABLE_ENTRY_BYTES

        return GaussianTable.from_sorted(merged_ids, merged_depths)

    def _refresh_depths(self, proj) -> int:
        """Overwrite table depths with the values rasterization fetched."""
        refreshed = 0
        for table in self.tables.values():
            if len(table):
                refreshed += table.update_depths(ids=proj.ids, depths=proj.depths)
        return refreshed

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
        self.tables.clear()
        self.frame_stats.clear()
        self._last_assignment = None


def _build_id_index(ids: np.ndarray) -> dict[int, int]:
    """Map global Gaussian ID -> row index in the projected arrays."""
    return {int(g): i for i, g in enumerate(ids)}


def _table_to_render_list(
    table: GaussianTable, id_to_row: dict[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convert a table to the row list the rasterizer consumes.

    Entries without a projection this frame (culled Gaussians awaiting lazy
    deletion) are skipped — the hardware analogue is the ITU immediately
    finding no intersection for them.
    """
    rows: list[int] = []
    keep: list[int] = []
    for i, gid in enumerate(table.ids):
        row = id_to_row.get(int(gid))
        if row is not None:
            rows.append(row)
            keep.append(i)
    keep_idx = np.asarray(keep, dtype=np.int64)
    return (
        np.asarray(rows, dtype=np.int64),
        table.ids[keep_idx] if keep_idx.size else np.empty(0, dtype=np.int64),
        table.depths[keep_idx] if keep_idx.size else np.empty(0, dtype=np.float64),
    )
