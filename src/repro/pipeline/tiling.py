"""Tile binning and Gaussian duplication (front half of the sorting stage).

3DGS subdivides the image into square tiles and duplicates every projected
Gaussian into each tile its bounding box overlaps (paper section 2.4).  The
per-tile (Gaussian ID, depth) lists produced here are the input to all
sorting strategies, and the tile-Gaussian *pair count* is the quantity that
drives the sorting stage's DRAM traffic in the hardware model.

**Duplication kernel.**  :func:`row_intervals` is the one implementation of
the circle-vs-tile test.  A splat's kept tiles in one tile row form a single
interval of columns, so it returns, per (Gaussian, tile row) run, the exact
interval ``[lo, hi]``.  It estimates both ends in closed form and checks
every run in one vectorised pass: the per-candidate test must pass at each
end and fail at the column beyond it.  Only runs that fail this check are
settled by a boundary search.  Interior candidates are never tested.
:func:`pair_lists` expands the intervals into ``(tile, Gaussian)`` pairs
for the functional pipeline (:func:`assign_to_tiles`) and the Fig. 7 order
differences; the hardware workload model (:mod:`repro.hw.workload`) counts
pairs, occupancy and churn from the intervals themselves.

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
    # Rows: the bbox's left, right, top and bottom pixel edges.
    edges = np.empty((4, radii.shape[0]), dtype=np.result_type(means2d, radii))
    np.subtract(x, r, out=edges[0])
    np.add(x, r, out=edges[1])
    np.subtract(y, r, out=edges[2])
    np.add(y, r, out=edges[3])
    off = (edges[1] < 0) | (edges[3] < 0) | (edges[0] >= width) | (edges[2] >= height)
    edges /= tile_size
    bounds = np.floor(edges, out=edges).astype(np.int64)
    # Upper bounds clip to -1 below zero so off-screen splats produce empty
    # ranges instead of wrapping into tile 0.
    np.maximum(bounds, [[0], [-1], [0], [-1]], out=bounds)
    last_x, last_y = -(-width // tile_size) - 1, -(-height // tile_size) - 1
    np.minimum(bounds, [[last_x], [last_x], [last_y], [last_y]], out=bounds)
    tx0, tx1, ty0, ty1 = bounds
    np.copyto(tx1, tx0 - 1, where=off)
    return tx0, tx1, ty0, ty1


def _segment_starts(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum: where each segment of ``counts`` starts."""
    starts = np.zeros(counts.shape[0], dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return starts


@dataclass(frozen=True)
class RowIntervals:
    """The kept tile columns of every (Gaussian, tile row) run.

    Run ``k`` puts Gaussian ``rows[k]`` into tiles ``lo[k]..hi[k]``
    (inclusive tile columns) of tile row ``tile_rows[k]``.  Runs come
    Gaussian-major, tile rows ascending within a Gaussian; runs that keep
    no column are absent.  All arrays are int64.
    """

    rows: np.ndarray
    tile_rows: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def counts(self) -> np.ndarray:
        """Kept tiles per run."""
        return self.hi - self.lo + 1


def row_intervals(
    means2d: np.ndarray,
    radii: np.ndarray,
    width: int,
    height: int,
    tile_size: int,
) -> RowIntervals:
    """Exact kept column interval of every (Gaussian, tile row) run.

    A candidate tile is kept when ``dx^2 + dy^2 <= r^2``, with ``dx`` and
    ``dy`` the distances from the splat center to the tile rectangle.  In
    one run ``dy^2`` and ``r^2`` are fixed, and ``dx^2`` never increases
    up to the *center* column (the one holding the splat center, clipped to
    the grid) and never decreases after it.  IEEE addition and comparison
    are monotone, so a run's kept columns form one interval around the
    center column, empty iff the center column fails.

    **Ends.**  With ``half = sqrt(max(r^2 - dy^2, 0))``, the closed-form
    ends are ``lo = floor((cx - half) / tile)`` and
    ``hi = floor((cx + half) / tile)``, clipped to the grid.  Rounding is
    monotone and ``half <= r``, so ``lo <= center <= hi`` and both ends lie
    in the splat's bbox.

    **Check.**  One pass over all runs applies the per-candidate test at
    ``lo`` and ``hi``, which must pass, and at ``lo - 1`` and ``hi + 1``,
    which must fail unless they are off the grid.  A run that passes keeps
    exactly ``[lo, hi]``.  A run with ``lo == hi`` whose end fails has that
    end on the center column, so it keeps nothing; every run with
    ``dy^2 > r^2`` is one.  The test's nearest point ``qx`` needs no
    per-column clip here.  For a center with ``0 <= cx < width``, ``qx`` is
    a column's right edge ``(c + 1) * tile`` left of the center column, its
    left edge ``c * tile`` right of it, and ``cx`` on it.  Clamping ``cx``
    into ``[0, width]`` first extends this to centers outside the image.
    Each test is then the distance from ``cx`` to one tile edge, squared,
    plus ``dy^2``, against ``r^2``, and ``qx`` is the float the clipped form
    selects, so every bit matches the per-candidate test.

    **Search.**  Runs that fail the check, such as exact ties on a tile
    edge, go to :func:`_search`.  It starts from the same estimates clipped
    to the bbox and settles each end with the per-candidate test itself,
    evaluated only at the boundary.  The search converges from any estimate
    inside the bbox, so the check decides speed only, and every kept tile
    is the one the frozen :func:`repro.hw.reference.scalar_pair_lists`
    keeps.
    """
    x, y = means2d[:, 0], means2d[:, 1]
    tx0, tx1, ty0, ty1 = _tile_bounds(means2d, radii, width, height, tile_size)
    # A rectangle empty in one axis has no runs.
    ny = np.maximum(ty1 - ty0 + 1, 0) * (tx1 >= tx0)
    run_g = np.repeat(np.arange(means2d.shape[0], dtype=np.int64), ny)
    n = run_g.shape[0]
    run_ty = (ty0 - _segment_starts(ny))[run_g]
    run_ty += np.arange(n, dtype=np.int64)
    cy = y[run_g]
    py = run_ty * tile_size
    dy2 = np.maximum(cy, py)
    py += tile_size
    np.minimum(dy2, np.minimum(py, height, out=py), out=dy2)
    dy2 -= cy
    dy2 *= dy2
    rr = (radii * radii)[run_g]
    cx = x[run_g]

    # Closed-form ends, as floats until the output: row 0 is lo, row 1 hi
    # (it holds ``half`` first).
    last = -(-width // tile_size) - 1
    ends = np.empty((2, n))
    half = np.subtract(rr, dy2, out=ends[1])
    np.sqrt(np.maximum(half, 0.0, out=half), out=half)
    np.subtract(cx, half, out=ends[0])
    ends[1] += cx
    _floor_columns(ends, tile_size, 0, last)

    # The check.  ``qx`` at the outer neighbours lo - 1 and hi + 1 is the
    # edge each shares with its end; at lo and hi it is the edge nearer the
    # center, or the center itself, clamped into the image.
    q = np.multiply(ends, tile_size)
    q[1] += tile_size
    outer = _kept(q, cx, dy2, rr)
    np.multiply(ends, tile_size, out=q)
    q[0] += tile_size
    np.minimum(q[0], cx, out=q[0])
    np.maximum(q[1], cx, out=q[1])
    np.clip(q, 0, width, out=q)
    kept = _kept(q, cx, dy2, rr)
    outer &= ends != [[0], [last]]
    nonempty = kept[0]
    checked = nonempty > outer[0]
    checked &= kept[1] > outer[1]
    # A failing end with lo == hi is the center column: the run is empty.
    checked |= (ends[0] == ends[1]) > nonempty

    miss = np.flatnonzero(~checked)
    if miss.shape[0]:
        g = run_g[miss]
        lo, hi, nonempty[miss] = _search(
            cx[miss], dy2[miss], rr[miss], tx0[g], tx1[g], tile_size, width
        )
        ends[0, miss] = lo
        ends[1, miss] = hi
    return RowIntervals(
        rows=run_g[nonempty],
        tile_rows=run_ty[nonempty],
        lo=ends[0][nonempty].astype(np.int64),
        hi=ends[1][nonempty].astype(np.int64),
    )


def _kept(qx, cx, dy2, rr):
    """The per-candidate test ``(qx - cx)^2 + dy^2 <= r^2``; overwrites ``qx``."""
    qx -= cx
    qx *= qx
    qx += dy2
    return qx <= rr


def _floor_columns(edges, tile_size, low, high):
    """Tile columns of pixel ``edges``, clipped to ``[low, high]``, in place."""
    edges /= tile_size
    np.floor(edges, out=edges)
    # fmin/fmax also map NaN to a bound, so the columns cast cleanly.
    np.fmax(edges, low, out=edges)
    return np.fmin(edges, high, out=edges)


def _search(cx, dy2, rr, lo_bound, hi_bound, tile_size, width):
    """``(lo, hi, nonempty)`` of runs, settled by the boundary search.

    The runs' ends start from the closed-form estimates, clipped to the
    bbox ``[lo_bound, hi_bound]`` and to the center column, and
    :func:`_settle` moves them with the exact per-candidate test.
    """
    # Center column.  ``floor(x / tile_size)`` is exact: a float below a
    # multiple of the integer tile divides to a float below the multiple's
    # quotient, never onto it.
    center = np.fmin(np.fmax(np.floor(cx / tile_size), lo_bound), hi_bound).astype(np.int64)

    def kept(idx, cols):
        px = cols * tile_size
        cxi = cx[idx]
        qx = np.minimum(np.maximum(cxi, px), np.minimum(px + tile_size, width))
        return _kept(qx, cxi, dy2[idx], rr[idx])

    half = np.sqrt(np.maximum(rr - dy2, 0.0))
    lo = _floor_columns(cx - half, tile_size, lo_bound, center).astype(np.int64)
    nonempty = _settle(lo, lo_bound, center, -1, kept)
    hi = _floor_columns(cx + half, tile_size, center, hi_bound).astype(np.int64)
    _settle(hi, hi_bound, center, 1, kept)
    return lo, hi, nonempty


def _settle(end, outer, inner, step, kept) -> np.ndarray:
    """Move every run's ``end`` to its outermost kept column, in place.

    ``end`` starts between ``inner`` (the center column) and ``outer`` (the
    bbox edge, ``step`` columns further out per move).  ``kept(idx, cols)``
    is the exact per-candidate test of runs ``idx`` at columns ``cols``.
    Returns whether each settled end is kept; one that is not has shrunk to
    a failing center column, so its run keeps nothing.
    """
    ok = kept(slice(None), end)
    grow = np.flatnonzero(ok & (end != outer))
    while grow.shape[0]:
        grow = grow[kept(grow, end[grow] + step)]
        end[grow] += step
        grow = grow[end[grow] != outer[grow]]
    shrink = np.flatnonzero(~ok & (end != inner))
    while shrink.shape[0]:
        end[shrink] -= step
        passed = kept(shrink, end[shrink])
        ok[shrink[passed]] = True
        shrink = shrink[~passed]
        shrink = shrink[end[shrink] != inner[shrink]]
    return ok


def pair_lists(
    means2d: np.ndarray,
    radii: np.ndarray,
    width: int,
    height: int,
    tile_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``(tiles, rows)`` duplication pairs: Gaussian ``rows[k]`` in ``tiles[k]``.

    The expansion of :func:`row_intervals`: every splat's bbox tile
    rectangle (:func:`tile_ranges`) refined by an exact circle-vs-tile
    test.  This matches the Rasterization Engine's ITU geometry (a circle
    overlaps a tile iff it overlaps one of the subtiles partitioning it),
    so a Gaussian assigned here is never immediately invalidated by the
    ITU.  Pairs come Gaussian-major, then row-major within each Gaussian's
    rectangle; both arrays are int64, bit-identical to the frozen
    per-candidate :func:`repro.hw.reference.scalar_pair_lists`.  Takes raw
    geometry so the workload model can run it on analytically re-scaled
    coordinates.
    """
    runs = row_intervals(means2d, radii, width, height, tile_size)
    counts = runs.counts()
    tiles_x = -(-width // tile_size)
    first = runs.tile_rows * tiles_x + runs.lo - _segment_starts(counts)
    tiles = np.repeat(first, counts) + np.arange(int(counts.sum()), dtype=np.int64)
    return tiles, np.repeat(runs.rows, counts)


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
