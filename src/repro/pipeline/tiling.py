"""Tile binning and Gaussian duplication (front half of the sorting stage).

3DGS subdivides the image into square tiles and duplicates every projected
Gaussian into each tile its bounding box overlaps (paper section 2.4).  The
per-tile (Gaussian ID, depth) lists produced here are the input to all
sorting strategies, and the tile-Gaussian *pair count* is the quantity that
drives the sorting stage's DRAM traffic in the hardware model.

**Duplication kernel.**  :func:`pair_lists` is the one implementation of the
expansion: the functional pipeline (:func:`assign_to_tiles`) and the
hardware workload model (:mod:`repro.hw.workload`) both call it.  It tests
each splat's circle against its bbox tiles on row runs (see its docstring).

**Tile-stream layout.**  Per-tile data is stored as one flat
:class:`TileStream` — a ``values`` array holding every tile-Gaussian pair
grouped by tile, plus a ``num_tiles + 1`` ``offsets`` array marking the
segment boundaries (the CRS/CSR idiom).  Tile ``t``'s entries are
``values[offsets[t]:offsets[t + 1]]``, a zero-copy view.  Every per-tile
loop in the pipeline becomes a segmented array program over this layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..scene.camera import Camera
from .projection import ProjectedGaussians

#: Tile edge used by the Neo accelerator configuration (Table 1).
NEO_TILE_SIZE = 64

#: Tile edge used by the reference CUDA 3DGS rasterizer.
GPU_TILE_SIZE = 16

#: Per-tile keys are packed as ``tile * _KEY_SHIFT + key`` for segmented set
#: operations; keys must therefore fit in ``[0, 2^32)`` (global Gaussian IDs
#: do by construction, matching the hardware's 32-bit ID field).
_KEY_SHIFT = np.int64(1) << 32


@dataclass(frozen=True)
class TileGrid:
    """Rectangular grid of square tiles covering the image plane."""

    width: int
    height: int
    tile_size: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        if self.tile_size <= 0:
            raise ValueError("tile_size must be positive")

    @property
    def tiles_x(self) -> int:
        """Number of tile columns."""
        return -(-self.width // self.tile_size)

    @property
    def tiles_y(self) -> int:
        """Number of tile rows."""
        return -(-self.height // self.tile_size)

    @property
    def num_tiles(self) -> int:
        """Total tile count."""
        return self.tiles_x * self.tiles_y

    def tile_index(self, tx: int, ty: int) -> int:
        """Flatten a (column, row) tile coordinate."""
        if not (0 <= tx < self.tiles_x and 0 <= ty < self.tiles_y):
            raise IndexError(f"tile ({tx}, {ty}) outside {self.tiles_x}x{self.tiles_y} grid")
        return ty * self.tiles_x + tx

    def tile_coords(self, index: int) -> tuple[int, int]:
        """Inverse of :meth:`tile_index`."""
        if not 0 <= index < self.num_tiles:
            raise IndexError(f"tile index {index} outside grid of {self.num_tiles}")
        return index % self.tiles_x, index // self.tiles_x

    def tile_pixel_bounds(self, index: int) -> tuple[int, int, int, int]:
        """Pixel rectangle ``(x0, y0, x1, y1)`` of a tile, exclusive upper."""
        tx, ty = self.tile_coords(index)
        x0 = tx * self.tile_size
        y0 = ty * self.tile_size
        return x0, y0, min(x0 + self.tile_size, self.width), min(y0 + self.tile_size, self.height)

    @staticmethod
    def for_camera(camera: Camera, tile_size: int = GPU_TILE_SIZE) -> "TileGrid":
        """Grid covering ``camera``'s image at the given tile size."""
        return TileGrid(width=camera.width, height=camera.height, tile_size=tile_size)


@dataclass(frozen=True)
class SegmentIntersection:
    """Per-tile set intersection of two :class:`TileStream` key sets.

    Entries are ordered by ``(tile, key)`` ascending — per tile, exactly the
    order ``np.intersect1d`` returns.  ``offsets`` delimits the per-tile
    segments; ``self_indices`` / ``other_indices`` locate each shared key in
    the two streams' flat arrays.
    """

    offsets: np.ndarray
    keys: np.ndarray
    self_indices: np.ndarray
    other_indices: np.ndarray

    @property
    def num_shared(self) -> int:
        """Total shared keys across all tiles."""
        return self.keys.shape[0]

    def counts(self) -> np.ndarray:
        """Shared keys per tile, shape ``(num_tiles,)``."""
        return np.diff(self.offsets)


@dataclass(frozen=True)
class TileStream:
    """Flat ``values + offsets`` (SoA) layout for per-tile data.

    Attributes
    ----------
    num_tiles:
        Number of segments (tiles) the stream covers.
    values:
        All per-pair payloads, grouped by tile; shape ``(num_pairs,)``.
    offsets:
        Segment boundaries, shape ``(num_tiles + 1,)``; tile ``t`` owns
        ``values[offsets[t]:offsets[t + 1]]``.
    """

    num_tiles: int
    values: np.ndarray
    offsets: np.ndarray

    def __post_init__(self) -> None:
        if self.offsets.shape[0] != self.num_tiles + 1:
            raise ValueError("offsets must have num_tiles + 1 entries")
        if self.num_tiles and (
            self.offsets[0] != 0
            or self.offsets[-1] != self.values.shape[0]
            or np.any(np.diff(self.offsets) < 0)
        ):
            raise ValueError("offsets must grow monotonically from 0 to len(values)")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, num_tiles: int, dtype=np.int64) -> "TileStream":
        """A stream of ``num_tiles`` empty segments."""
        return cls(
            num_tiles=num_tiles,
            values=np.empty(0, dtype=dtype),
            offsets=np.zeros(num_tiles + 1, dtype=np.int64),
        )

    @classmethod
    def from_pairs(
        cls, tiles: np.ndarray, values: np.ndarray, num_tiles: int
    ) -> "TileStream":
        """Build a stream from parallel ``(tile, value)`` pair arrays.

        Pairs are grouped by tile with a *stable* sort, so ties preserve the
        input pair order within each tile.  A stable sort's permutation is
        unique, so when every tile index fits in 16 bits the sort runs on a
        ``uint16`` copy of the tile column, which NumPy radix-sorts.
        """
        if tiles.shape[0] == 0:
            return cls.empty(num_tiles, dtype=values.dtype)
        sort_keys = tiles.astype(np.uint16) if num_tiles <= 1 << 16 else tiles
        order = np.argsort(sort_keys, kind="stable")
        tiles_sorted = tiles[order]
        offsets = np.searchsorted(tiles_sorted, np.arange(num_tiles + 1))
        return cls(num_tiles=num_tiles, values=values[order], offsets=offsets)

    @classmethod
    def from_lists(cls, per_tile: list[np.ndarray], dtype=np.int64) -> "TileStream":
        """Build a stream from the legacy list-of-arrays layout."""
        num_tiles = len(per_tile)
        counts = np.fromiter(
            (a.shape[0] for a in per_tile), dtype=np.int64, count=num_tiles
        )
        offsets = np.zeros(num_tiles + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        values = (
            np.concatenate(per_tile) if int(counts.sum()) else np.empty(0, dtype=dtype)
        )
        return cls(num_tiles=num_tiles, values=values, offsets=offsets)

    # ------------------------------------------------------------------
    # Shape queries
    # ------------------------------------------------------------------
    @property
    def num_pairs(self) -> int:
        """Total entries across all tiles."""
        return int(self.values.shape[0])

    def counts(self) -> np.ndarray:
        """Per-tile entry counts, shape ``(num_tiles,)``."""
        return np.diff(self.offsets)

    def tile_of(self) -> np.ndarray:
        """Owning tile of every entry, shape ``(num_pairs,)``."""
        return np.repeat(np.arange(self.num_tiles, dtype=np.int64), self.counts())

    def nonempty(self) -> np.ndarray:
        """Indices of tiles with at least one entry."""
        return np.flatnonzero(self.offsets[1:] > self.offsets[:-1])

    # ------------------------------------------------------------------
    # Per-tile access
    # ------------------------------------------------------------------
    def rows_for(self, tile: int) -> np.ndarray:
        """Tile ``tile``'s entries — a zero-copy view into ``values``."""
        return self.values[self.offsets[tile] : self.offsets[tile + 1]]

    def with_values(self, values: np.ndarray) -> "TileStream":
        """A stream with the same segmentation over a different payload."""
        if values.shape[0] != self.values.shape[0]:
            raise ValueError("replacement values must align with the stream")
        return TileStream(num_tiles=self.num_tiles, values=values, offsets=self.offsets)

    def resized(self, num_tiles: int) -> "TileStream":
        """The first ``num_tiles`` segments, padded with empty ones if short."""
        if num_tiles <= self.num_tiles:
            offsets = self.offsets[: num_tiles + 1]
        else:
            pad = np.full(num_tiles - self.num_tiles, self.offsets[-1], dtype=np.int64)
            offsets = np.concatenate([self.offsets, pad])
        return TileStream(
            num_tiles=num_tiles, values=self.values[: offsets[-1]], offsets=offsets
        )

    def compress(self, mask: np.ndarray) -> "TileStream":
        """The entries where ``mask`` holds, each left in its own tile."""
        kept = np.zeros(self.values.shape[0] + 1, dtype=np.int64)
        np.cumsum(mask, out=kept[1:])
        return TileStream(
            num_tiles=self.num_tiles, values=self.values[mask], offsets=kept[self.offsets]
        )

    # ------------------------------------------------------------------
    # Segmented algorithms
    # ------------------------------------------------------------------
    def segment_reduce(self, data: np.ndarray, ufunc=np.add, initial=0) -> np.ndarray:
        """Reduce ``data`` (aligned with ``values``) per tile with ``ufunc``.

        Empty tiles yield ``initial``.  Reduction order within a tile is
        ``ufunc.reduceat``'s left-to-right pairing over the segment.
        """
        if data.shape[0] != self.values.shape[0]:
            raise ValueError("data must align with the stream's values")
        out = np.full(self.num_tiles, initial, dtype=np.result_type(data, initial))
        starts = self.offsets[:-1]
        mask = starts < self.offsets[1:]
        if data.shape[0] and np.any(mask):
            out[mask] = ufunc.reduceat(data, starts[mask])
        return out

    def segment_intersect(
        self, keys: np.ndarray, other: "TileStream", other_keys: np.ndarray
    ) -> SegmentIntersection:
        """Per-tile set intersection of two streams' key sets.

        ``keys`` / ``other_keys`` align with the streams' ``values`` and must
        be unique *within each tile* (the ``assume_unique`` contract of
        ``np.intersect1d``) and lie in ``[0, 2^32)``.  The result lists every
        key present in both streams' copies of a tile, ordered by
        ``(tile, key)`` — per tile, exactly ``np.intersect1d``'s output.
        """
        if other.num_tiles != self.num_tiles:
            raise ValueError("streams must cover the same tile count")
        if keys.shape[0] != self.values.shape[0] or (
            other_keys.shape[0] != other.values.shape[0]
        ):
            raise ValueError("keys must align with the streams' values")
        ka = self.tile_of() * _KEY_SHIFT + keys
        kb = other.tile_of() * _KEY_SHIFT + other_keys
        order_a = np.argsort(ka, kind="stable")
        order_b = np.argsort(kb, kind="stable")
        sa = ka[order_a]
        sb = kb[order_b]
        if sb.shape[0]:
            pos = np.searchsorted(sb, sa)
            safe = np.minimum(pos, sb.shape[0] - 1)
            mask = (pos < sb.shape[0]) & (sb[safe] == sa)
        else:
            pos = np.zeros(sa.shape[0], dtype=np.int64)
            mask = np.zeros(sa.shape[0], dtype=bool)
        shared = sa[mask]
        tiles_shared = shared >> 32
        offsets = np.searchsorted(tiles_shared, np.arange(self.num_tiles + 1))
        return SegmentIntersection(
            offsets=offsets,
            keys=shared - (tiles_shared << 32),
            self_indices=order_a[mask],
            other_indices=order_b[pos[mask]],
        )


@dataclass
class TileAssignment:
    """Per-tile Gaussian membership produced by duplication.

    Attributes
    ----------
    grid:
        The tile grid the assignment refers to.
    stream:
        :class:`TileStream` whose values are row indices into the
        :class:`ProjectedGaussians` arrays, grouped by tile (in projection
        order within each tile, *unsorted* by depth).
    projected:
        The projected Gaussians the rows refer to.
    """

    grid: TileGrid
    stream: TileStream
    projected: ProjectedGaussians

    @property
    def num_tiles(self) -> int:
        """Tiles covered by the assignment."""
        return self.stream.num_tiles

    @property
    def num_pairs(self) -> int:
        """Total tile-Gaussian pairs (duplication count), the key workload stat."""
        return self.stream.num_pairs

    def rows_for(self, tile: int) -> np.ndarray:
        """Row indices assigned to ``tile`` (zero-copy view)."""
        return self.stream.rows_for(tile)

    def tile_ids(self, tile: int) -> np.ndarray:
        """Global Gaussian IDs assigned to ``tile``."""
        return self.projected.ids[self.stream.rows_for(tile)]

    def tile_depths(self, tile: int) -> np.ndarray:
        """Depths of the Gaussians assigned to ``tile``."""
        return self.projected.depths[self.stream.rows_for(tile)]

    def occupancy(self) -> np.ndarray:
        """Per-tile Gaussian counts, shape ``(num_tiles,)``."""
        return self.stream.counts()

    def nonempty_tiles(self) -> np.ndarray:
        """Indices of tiles with at least one Gaussian."""
        return self.stream.nonempty()


def tile_ranges(
    projected: ProjectedGaussians, grid: TileGrid
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Inclusive tile-coordinate bounding boxes for every projected Gaussian.

    Returns ``(tx0, tx1, ty0, ty1)`` clipped to the grid; a Gaussian fully
    outside the image yields an empty range (``tx1 < tx0``).
    """
    return _tile_bounds(
        projected.means2d, projected.radii, grid.width, grid.height, grid.tile_size
    )


def _tile_bounds(
    means2d: np.ndarray, radii: np.ndarray, width: int, height: int, tile_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`tile_ranges` over raw geometry (splat centers and radii)."""
    x, y, r = means2d[:, 0], means2d[:, 1], radii
    tiles_x = -(-width // tile_size)
    tiles_y = -(-height // tile_size)
    tx0 = np.floor((x - r) / tile_size).astype(np.int64)
    tx1 = np.floor((x + r) / tile_size).astype(np.int64)
    ty0 = np.floor((y - r) / tile_size).astype(np.int64)
    ty1 = np.floor((y + r) / tile_size).astype(np.int64)
    np.clip(tx0, 0, tiles_x - 1, out=tx0)
    np.clip(ty0, 0, tiles_y - 1, out=ty0)
    # Upper bounds clip to -1 below zero so off-screen splats produce empty
    # ranges instead of wrapping into tile 0.
    np.clip(tx1, -1, tiles_x - 1, out=tx1)
    np.clip(ty1, -1, tiles_y - 1, out=ty1)
    off = (x + r < 0) | (y + r < 0) | (x - r >= width) | (y - r >= height)
    tx1[off] = tx0[off] - 1
    return tx0, tx1, ty0, ty1


def _segment_starts(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum: where each segment of ``counts`` starts."""
    starts = np.zeros(counts.shape[0], dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return starts


def pair_lists(
    means2d: np.ndarray,
    radii: np.ndarray,
    width: int,
    height: int,
    tile_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``(tiles, rows)`` duplication pairs: Gaussian ``rows[k]`` in ``tiles[k]``.

    Every splat's bbox tile rectangle (:func:`tile_ranges`) is refined by an
    exact circle-vs-tile-rectangle test.  This matches the Rasterization
    Engine's ITU geometry (a circle overlaps a tile iff it overlaps one of
    the subtiles partitioning it), so a Gaussian assigned here is never
    immediately invalidated by the ITU.  Pairs come Gaussian-major, then
    row-major within each Gaussian's rectangle; both arrays are int64.

    The test splits as ``dx^2 + dy^2 <= r^2``, where ``dx`` depends only on
    the tile column and ``dy`` only on the tile row.  So ``dx^2`` is computed
    once per (Gaussian, tile column) and ``dy^2`` and ``r^2`` once per
    *row run* — one (Gaussian, tile row) — and each run expands across its
    Gaussian's columns for the sum and compare alone.  Every float is the
    same operand in the same operation as a per-candidate test, so the
    result is bit-identical to it (pinned against the frozen
    :func:`repro.hw.reference.scalar_pair_lists`).  Takes raw geometry so the
    workload model can run it on analytically re-scaled coordinates.
    """
    x, y = means2d[:, 0], means2d[:, 1]
    tiles_x = -(-width // tile_size)
    tx0, tx1, ty0, ty1 = _tile_bounds(means2d, radii, width, height, tile_size)
    nx = np.maximum(tx1 - tx0 + 1, 0)
    ny = np.maximum(ty1 - ty0 + 1, 0)
    # A rectangle empty in one axis has no cells in the other either.
    live = (nx > 0) & (ny > 0)
    nx *= live
    ny *= live
    gaussians = np.arange(means2d.shape[0], dtype=np.int64)

    # Column cells: dx^2 of each Gaussian against each of its tile columns.
    col_start = _segment_starts(nx)
    col_g = np.repeat(gaussians, nx)
    col_px = (
        np.arange(col_g.shape[0], dtype=np.int64) - np.repeat(col_start - tx0, nx)
    ) * tile_size
    cx = x[col_g]
    qx = np.clip(cx, col_px, np.minimum(col_px + tile_size, width))
    dx2 = (qx - cx) ** 2

    # Row runs: dy^2 and r^2 once per (Gaussian, tile row).
    run_g = np.repeat(gaussians, ny)
    num_runs = run_g.shape[0]
    if num_runs == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    run_ty = np.arange(num_runs, dtype=np.int64) - np.repeat(_segment_starts(ny) - ty0, ny)
    run_py = run_ty * tile_size
    cy = y[run_g]
    qy = np.clip(cy, run_py, np.minimum(run_py + tile_size, height))
    dy2 = (qy - cy) ** 2
    rr = (radii * radii)[run_g]

    # Candidates: every run expanded across its Gaussian's columns.
    run_nx = nx[run_g]
    run_start = _segment_starts(run_nx)
    cand_run = np.repeat(np.arange(num_runs, dtype=np.int64), run_nx)
    cand = np.arange(cand_run.shape[0], dtype=np.int64)
    cand_col = (col_start[run_g] - run_start)[cand_run] + cand
    kept = np.flatnonzero(dx2[cand_col] + dy2[cand_run] <= rr[cand_run])
    kept_run = cand_run[kept]
    tiles = (run_ty * tiles_x + tx0[run_g] - run_start)[kept_run] + kept
    return tiles, run_g[kept_run]


def assign_to_tiles(projected: ProjectedGaussians, grid: TileGrid) -> TileAssignment:
    """Duplicate projected Gaussians into every tile they overlap.

    The pairs come from :func:`pair_lists` — the same kernel the hardware
    workload model runs — and the stable group-by-tile *is* the stream
    construction: offsets fall out of one searchsorted over the sorted tile
    column, with no per-tile list build.
    """
    tiles, rows = pair_lists(
        projected.means2d, projected.radii, grid.width, grid.height, grid.tile_size
    )
    stream = TileStream.from_pairs(tiles, rows, grid.num_tiles)
    return TileAssignment(grid=grid, stream=stream, projected=projected)
