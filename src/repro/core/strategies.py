"""Sorting-stage strategies: Neo plus the design-space baselines.

Section 4.1 of the paper explores the design space of sorting reuse and
section 6.3 (Fig. 19) compares four methods on Neo hardware:

* **full re-sort** — conventional per-frame global sorting (what GPU 3DGS
  and, with hierarchy, GSCore do);
* **periodic sorting** — full sort every K frames, stale order in between
  (low average latency, latency spikes, accumulating quality error);
* **background sorting** — a full sort permanently runs in the background;
  each frame consumes the most recent *completed* sort, i.e. an order
  computed for a viewpoint L frames old (sustained traffic, viewpoint lag);
* **hierarchical sorting** — GSCore's coarse-bucket + fine-sort, accurate
  but multiple off-chip passes;
* **Neo** — :class:`~repro.core.reuse_update.ReuseUpdateSorter`.

Every strategy implements the pipeline's ``SortStrategy`` protocol and keeps
a per-frame :class:`SortTraffic` ledger for the hardware models.
"""

from __future__ import annotations

from collections import deque

from ..pipeline.rasterizer import RasterResult
from ..pipeline.sorting import SortedTiles, sort_tiles
from ..pipeline.tiling import TileAssignment
from .dynamic_partial_sort import DEFAULT_CHUNK_SIZE
from .gaussian_table import TABLE_ENTRY_BYTES
from .reuse_update import ReuseUpdateSorter, SortTraffic, full_sort_traffic, lookup_rows

__all__ = [
    "FullResortStrategy",
    "PeriodicSortStrategy",
    "BackgroundSortStrategy",
    "HierarchicalSortStrategy",
    "NeoSortStrategy",
    "make_strategy",
]

#: Neo's strategy under its user-facing name.
NeoSortStrategy = ReuseUpdateSorter


class FullResortStrategy:
    """Conventional baseline: exact global sort from scratch every frame."""

    name = "full"

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        self.chunk_size = chunk_size
        self.frame_traffic: list[SortTraffic] = []

    def sort_frame(self, assignment: TileAssignment, frame_index: int) -> SortedTiles:
        self.frame_traffic.append(full_sort_traffic(assignment.occupancy(), self.chunk_size))
        return sort_tiles(assignment)

    def observe_raster(
        self, frame_index: int, sorted_tiles: SortedTiles, raster: RasterResult
    ) -> None:
        return None

    def total_traffic(self) -> SortTraffic:
        """Aggregate traffic over all frames."""
        total = SortTraffic()
        for t in self.frame_traffic:
            total.add(t)
        return total


class PeriodicSortStrategy:
    """Full sort every ``period`` frames; intermediate frames reuse it as-is.

    Between refreshes both the *order* and the *membership* of each tile's
    list go stale: newly visible Gaussians are missing and departed ones are
    silently skipped, which is why quality decays until the next refresh
    (Fig. 19b) while traffic is near zero on skip frames (latency spikes on
    refresh frames, Fig. 19a).
    """

    name = "periodic"

    def __init__(self, period: int = 10, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        if period < 1:
            raise ValueError("period must be >= 1")
        self.period = period
        self.chunk_size = chunk_size
        self.frame_traffic: list[SortTraffic] = []
        self._cached: SortedTiles | None = None

    def sort_frame(self, assignment: TileAssignment, frame_index: int) -> SortedTiles:
        refresh = frame_index % self.period == 0 or self._cached is None
        if refresh:
            self.frame_traffic.append(full_sort_traffic(assignment.occupancy(), self.chunk_size))
            exact = sort_tiles(assignment)
            self._cached = exact
            return exact

        # Skip frame: replay the cached order against the current projection.
        self.frame_traffic.append(SortTraffic())
        return _replay_cached_order(assignment, self._cached)

    def observe_raster(
        self, frame_index: int, sorted_tiles: SortedTiles, raster: RasterResult
    ) -> None:
        return None

    def total_traffic(self) -> SortTraffic:
        """Aggregate traffic over all frames."""
        total = SortTraffic()
        for t in self.frame_traffic:
            total.add(t)
        return total


class BackgroundSortStrategy:
    """Continuously sort in the background; frames consume lagged results.

    A full sort of every frame is launched in the background and completes
    ``lag`` frames later, so frame ``i`` renders with the ordering (and
    membership) computed for frame ``i - lag``'s viewpoint.  Traffic is the
    full per-frame sorting stream, sustained — the memory-contention problem
    the paper attributes to this design (section 4.1).
    """

    name = "background"

    def __init__(self, lag: int = 2, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        if lag < 1:
            raise ValueError("lag must be >= 1")
        self.lag = lag
        self.chunk_size = chunk_size
        self.frame_traffic: list[SortTraffic] = []
        self._pending: deque[SortedTiles] = deque()

    def sort_frame(self, assignment: TileAssignment, frame_index: int) -> SortedTiles:
        # Launch this frame's background sort (traffic charged now, results
        # usable `lag` frames later).
        self.frame_traffic.append(full_sort_traffic(assignment.occupancy(), self.chunk_size))
        self._pending.append(sort_tiles(assignment))

        if len(self._pending) > self.lag:
            stale = self._pending.popleft()
        else:
            # Warm-up: nothing completed yet, use the oldest available.
            stale = self._pending[0]
        return _replay_cached_order(assignment, stale)

    def observe_raster(
        self, frame_index: int, sorted_tiles: SortedTiles, raster: RasterResult
    ) -> None:
        return None

    def total_traffic(self) -> SortTraffic:
        """Aggregate traffic over all frames."""
        total = SortTraffic()
        for t in self.frame_traffic:
            total.add(t)
        return total


class HierarchicalSortStrategy:
    """GSCore-style hierarchical sorting on reused tables.

    Coarse-grained bucketing by depth followed by a fine sort inside each
    bucket reproduces the exact order, because buckets are monotone in
    depth, so the order comes from :func:`~repro.pipeline.sorting.sort_tiles`.
    The hierarchy's cost is traffic: the bucketing pass and the fine pass
    each read and write the whole table off-chip, so per-frame traffic is
    roughly twice Neo's single pass (Fig. 19 latency gap).
    """

    name = "hierarchical"

    def __init__(self) -> None:
        self.frame_traffic: list[SortTraffic] = []

    def sort_frame(self, assignment: TileAssignment, frame_index: int) -> SortedTiles:
        table_bytes = 2 * assignment.num_pairs * TABLE_ENTRY_BYTES
        self.frame_traffic.append(SortTraffic(table_read=table_bytes, table_write=table_bytes))
        return sort_tiles(assignment)

    def observe_raster(
        self, frame_index: int, sorted_tiles: SortedTiles, raster: RasterResult
    ) -> None:
        return None

    def total_traffic(self) -> SortTraffic:
        """Aggregate traffic over all frames."""
        total = SortTraffic()
        for t in self.frame_traffic:
            total.add(t)
        return total


def _replay_cached_order(assignment: TileAssignment, cached: SortedTiles) -> SortedTiles:
    """Render the current frame using a stale per-tile ordering.

    Stale IDs missing from the current projection are dropped (they cannot
    be rasterized); Gaussians new to a tile are absent (the quality cost of
    stale membership).
    """
    stale = cached.stream.with_values(cached.ids).resized(assignment.num_tiles)
    rows = lookup_rows(assignment.projected.ids, stale.values)
    found = rows >= 0
    kept = stale.compress(found)
    return SortedTiles(
        stream=kept.with_values(rows[found]),
        ids=kept.values,
        depths=cached.depths[: stale.num_pairs][found],
    )


#: Strategy classes by the name :func:`make_strategy` builds them under.
_STRATEGY_CLASSES = {
    "full": FullResortStrategy,
    "periodic": PeriodicSortStrategy,
    "background": BackgroundSortStrategy,
    "hierarchical": HierarchicalSortStrategy,
    "neo": NeoSortStrategy,
}

#: Names :func:`make_strategy` recognizes (``neo`` is the
#: :class:`~repro.core.reuse_update.ReuseUpdateSorter`).
STRATEGIES: tuple[str, ...] = tuple(_STRATEGY_CLASSES)


def make_strategy(name: str, **kwargs) -> object:
    """Factory: build a sorting strategy by name (one of :data:`STRATEGIES`)."""
    key = name.lower()
    if key not in _STRATEGY_CLASSES:
        raise KeyError(f"unknown strategy {name!r}; options: {sorted(_STRATEGY_CLASSES)}")
    return _STRATEGY_CLASSES[key](**kwargs)
