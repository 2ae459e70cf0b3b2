"""Workload extraction: from functional renders to paper-scale statistics.

The pure-Python pipeline renders reduced scenes (10^3-10^4 Gaussians), but
the hardware models need workloads at the paper's scale (10^6 Gaussians,
HD-QHD resolutions).  The bridge is geometric: a frame's sorting/raster
workload is fully determined by the visible Gaussians' screen positions,
radii and depths, and those re-scale analytically:

* resolution: focal length scales with image height, so screen positions and
  radii scale by ``target_height / capture_height``;
* Gaussian count: per-tile occupancy and pair counts scale linearly with the
  instantiated count (splats are i.i.d. within the preset's distribution),
  so counts multiply by ``nominal / functional``.

:class:`WorkloadModel` captures per-frame geometry once and answers pair
counts, occupancy, churn, and order-difference queries for any (resolution,
tile size).  Capture runs culling and
:func:`~repro.pipeline.projection.project_geometry` only: no conics, no SH
colors, no opacities, no rasterization, since none of them moves a count.
The scene comes from :func:`~repro.scene.datasets.load_scene`, whose
per-process memo generates each preset (and its 3D covariances) once, so a
fresh capture of an already-loaded scene pays for projection alone.

Nothing is counted pair by pair: the cached unit is a frame's *runs*, the
exact kept tile-column interval ``[lo, hi]`` of every (Gaussian, tile row)
from :func:`repro.pipeline.tiling.row_intervals`, the same kernel whose
expansion the functional pipeline's ``assign_to_tiles`` runs.  Runs are
keyed ``ID << 32 | tile row``; culled IDs ascend and runs are
Gaussian-major with tile rows ascending, so the keys come sorted.  Runs
and each :class:`FrameWorkload` are cached per configuration, so systems
that share one (GSCore and Orin both tile at 16 px) pay for it once.

A frame runs the kernel once per *family* of configurations, not once per
configuration, when the finest is asked for first.  Two facts make the
rest of a family exact derivations:

* scale: doubling width, height and tile together leaves the runs
  unchanged.  Geometry scales by ``height / capture_height``, and
  ``fl(2h / c) == 2 * fl(h / c)``, so QHD's centers and radii are bit for
  bit twice HD's (UHD's twice FHD's).  Every operation of the kernel
  (add, subtract, multiply, ``sqrt``, ``/ tile``, ``floor``, the clamps to
  the image and the compares) commutes exactly with ``x 2``, so HD at
  16 px is QHD at 32 px, and HD at 64 px is QHD at 128 px;
* halving: the runs at tile ``2t`` follow from those at ``t`` by
  :meth:`_Runs.halve`, since a ``2t`` tile is the union of its ``t``
  subtiles.

So QHD at 16 px, then HD at 16 px (QHD at 32), QHD at 64 and HD at 64
(QHD at 128) form one chain: the kernel runs for the first, and each of the
others is one halving of the one before.  :meth:`WorkloadModel._runs`
halves from the nearest finer configuration the frame has cached, and the
experiment engine evaluates a capture's cells finest grain first, so the
kernel runs once per frame for the paper's figures.  From the runs:

* pairs are ``sum(hi - lo + 1)``;
* nonempty tiles are a per-(frame, family, step) boolean tile mask, pooled
  up the family chain like the runs: a ``2t`` tile is nonempty iff one of
  its ``t`` subtiles is, so a step up ORs 2x2 blocks.  Only the frame's
  finest cached step counts its runs per tile (one difference array per
  tile row, ``+1`` at ``lo`` and ``-1`` past ``hi``, and one ``cumsum``);
* churn overlaps the two frames' matched runs.  One ``searchsorted`` finds
  each run's partner with the same key, and the overlap of their intervals
  is the ``shared`` pairs, summed as ``max(0, min(hi) - max(lo) + 1)``
  without building the overlap runs, so incoming is ``|cur| - shared`` and
  outgoing is ``|prev| - shared``.  Extraction does not count it: only
  Neo-style models read churn, so a workload counts it the first time its
  ``incoming_pairs`` or ``outgoing_pairs`` is read, and keeps the result;
* Fig. 6's per-tile retained counts are the same overlaps, counted per tile
  with a difference array.

Only the Fig. 7 order differences expand runs into pairs and group them by
tile.  The pre-kernel expansion and the two-membership churn are frozen in
:mod:`repro.hw.reference` (``scalar_pair_lists``,
``scalar_frame_workload``) and pinned bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..pipeline.culling import frustum_cull
from ..pipeline.projection import project_geometry
from ..pipeline.tiling import RowIntervals, TileGrid, TileStream, row_intervals

# Re-exported: the hardware package's public name for the pair expansion.
from ..pipeline.tiling import pair_lists as pair_lists
from ..scene.camera import Camera, resolution as named_resolution
from ..scene.datasets import archetype_trajectory, default_trajectory, load_scene, scene_spec
from ..scene.gaussians import GaussianScene

#: The low half of an ``ID << 32 | tile`` pair key or ``ID << 32 | tile row`` run key.
_LOW_MASK = (1 << 32) - 1

#: Capture resolution for workload extraction; small enough to be fast,
#: large enough that tile geometry at scaled resolutions is well sampled.
CAPTURE_WIDTH = 480
CAPTURE_HEIGHT = 270


@dataclass(frozen=True)
class FrameGeometry:
    """Visible-Gaussian geometry for one frame at capture resolution."""

    ids: np.ndarray
    means2d: np.ndarray
    radii: np.ndarray
    depths: np.ndarray

    @property
    def num_visible(self) -> int:
        """Visible Gaussians this frame (functional count)."""
        return self.ids.shape[0]


class _ChurnField:
    """A churn field of :class:`FrameWorkload`: a count, or a deferred one.

    The field holds either an explicit count or the frame's :class:`_Churn`,
    and reads as the count either way, so equality, ``repr`` and hashing
    compare counts.  As a dataclass field default it is a descriptor: reading
    it on the class raises ``AttributeError``, which tells
    :func:`dataclasses.dataclass` the field has no default.
    """

    def __init__(self, index: int) -> None:
        self._index = index  # into ``_Churn.counts``: 0 incoming, 1 outgoing

    def __set_name__(self, owner: type, name: str) -> None:
        self._name = name

    def __get__(self, workload: "FrameWorkload | None", owner: type | None = None) -> float:
        if workload is None:
            raise AttributeError(self._name)
        value = workload.__dict__[self._name]
        return value.counts[self._index] if isinstance(value, _Churn) else value

    def __set__(self, workload: "FrameWorkload", value: "float | _Churn") -> None:
        workload.__dict__[self._name] = value


@dataclass(frozen=True)
class FrameWorkload:
    """Paper-scale workload statistics for one frame at one configuration.

    All counts are scaled to the scene's *nominal* Gaussian count.

    Attributes
    ----------
    visible:
        Gaussians surviving culling.
    pairs:
        Tile-Gaussian duplication pairs (sorting workload).
    incoming_pairs / outgoing_pairs:
        Pairs entering / leaving their tile since the previous frame
        (zero for frame 0).  :meth:`WorkloadModel.frame_workload` passes
        both the frame's :class:`_Churn`, which counts them on first read;
        any other caller passes the counts.
    nonempty_tiles:
        Tiles with at least one Gaussian.
    mean_occupancy:
        Mean pairs per nonempty tile.
    """

    frame_index: int
    width: int
    height: int
    tile_size: int
    num_gaussians: float
    visible: float
    pairs: float
    incoming_pairs: float = _ChurnField(0)
    outgoing_pairs: float = _ChurnField(1)
    nonempty_tiles: int
    num_tiles: int
    mean_occupancy: float

    @property
    def churn_fraction(self) -> float:
        """Incoming pairs as a share of all pairs."""
        return self.incoming_pairs / self.pairs if self.pairs else 0.0

    @property
    def retained_fraction(self) -> float:
        """Share of pairs carried over from the previous frame."""
        return 1.0 - self.churn_fraction


class WorkloadModel:
    """Per-frame geometry capture plus scaled workload queries.

    Parameters
    ----------
    frames:
        Captured per-frame geometry at ``capture_width x capture_height``.
    capture_width, capture_height:
        Resolution the geometry was captured at.
    count_scale:
        ``nominal_gaussians / functional_gaussians`` for the scene.
    functional_gaussians:
        Instantiated Gaussian count.
    scene_name:
        Label for reporting.
    """

    def __init__(
        self,
        frames: list[FrameGeometry],
        capture_width: int,
        capture_height: int,
        count_scale: float,
        functional_gaussians: int,
        scene_name: str = "scene",
    ) -> None:
        if not frames:
            raise ValueError("need at least one frame")
        if count_scale <= 0:
            raise ValueError("count_scale must be positive")
        self.frames = frames
        self.capture_width = capture_width
        self.capture_height = capture_height
        self.count_scale = count_scale
        self.functional_gaussians = functional_gaussians
        self.scene_name = scene_name
        # Per frame: (family, step) of a configuration (see ``_grain``) -> runs,
        # and -> the (tiles_y, tiles_x) mask of nonempty tiles.
        self._run_cache: list[dict[tuple[tuple[int, int, int], int], _Runs]] = [
            {} for _ in frames
        ]
        self._nonempty_cache: list[dict[tuple[tuple[int, int, int], int], np.ndarray]] = [
            {} for _ in frames
        ]
        # (frame, width, height, tile_size) -> TileStream of Gaussian rows, for
        # the order differences.
        self._stream_cache: dict[tuple[int, int, int, int], TileStream] = {}
        # Same key -> FrameWorkload, so systems sharing a configuration (GSCore
        # and Orin both tile at 16 px) extract it once.
        self._workload_cache: dict[tuple[int, int, int, int], FrameWorkload] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def from_scene(
        scene_name: str,
        num_frames: int = 30,
        speed: float = 1.0,
        num_gaussians: int | None = None,
        trajectory: str | None = None,
        capture_width: int = CAPTURE_WIDTH,
        capture_height: int = CAPTURE_HEIGHT,
    ) -> "WorkloadModel":
        """Capture a workload model for a registered scene preset.

        The scene is the shared, read-only one from
        :func:`~repro.scene.datasets.load_scene`.  ``trajectory`` names an
        archetype from :data:`~repro.scene.datasets.TRAJECTORY_ARCHETYPES`;
        ``None`` keeps the scene's default one.
        """
        spec = scene_spec(scene_name)
        scene = load_scene(scene_name, num_gaussians=num_gaussians)
        size = (capture_width, capture_height)
        if trajectory is None:
            cameras = default_trajectory(scene_name, num_frames, speed, *size)
        else:
            cameras = archetype_trajectory(scene_name, trajectory, num_frames, speed, *size)
        return WorkloadModel.from_render(
            scene,
            cameras,
            nominal_gaussians=spec.nominal_gaussians,
            scene_name=scene_name,
        )

    @staticmethod
    def from_render(
        scene: GaussianScene,
        cameras: list[Camera],
        nominal_gaussians: int | None = None,
        scene_name: str | None = None,
    ) -> "WorkloadModel":
        """Capture geometry by running culling + geometric projection per camera.

        :func:`~repro.pipeline.projection.project_geometry` evaluates no SH
        color or opacity, which no workload query reads.  Its kept arrays are
        fresh per frame, so the frame stores them as they are.
        """
        frames = []
        for camera in cameras:
            culled = frustum_cull(scene, camera)
            geo = project_geometry(scene, camera, culled.visible_ids)
            frames.append(
                FrameGeometry(
                    ids=geo.ids, means2d=geo.means2d, radii=geo.radii, depths=geo.depths
                )
            )
        nominal = nominal_gaussians if nominal_gaussians is not None else len(scene)
        return WorkloadModel(
            frames=frames,
            capture_width=cameras[0].width,
            capture_height=cameras[0].height,
            count_scale=nominal / max(len(scene), 1),
            functional_gaussians=len(scene),
            scene_name=scene_name or scene.name,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_frames(self) -> int:
        """Frames captured."""
        return len(self.frames)

    def _resolve(self, resolution: str | tuple[int, int]) -> tuple[int, int]:
        if isinstance(resolution, str):
            return named_resolution(resolution)
        return resolution

    def scaled_geometry(
        self, frame: int, resolution: str | tuple[int, int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(means2d, radii) re-scaled to the target resolution."""
        width, height = self._resolve(resolution)
        geo = self.frames[frame]
        s = height / self.capture_height
        return geo.means2d * s, geo.radii * s

    def _pairs(
        self, frame: int, width: int, height: int, tile_size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, keys)``: a frame's pairs and their ``ID << 32 | tile`` keys.

        The pairs are the cached runs expanded (:meth:`RowIntervals.pairs`),
        so no kernel runs again.  Culled IDs ascend, so one ``searchsorted``
        finds each run's row from its key.  Pairs are Gaussian-major, so the
        keys ascend as culled IDs do.  Only :meth:`frame_stream` expands
        pairs; the counts read :meth:`_runs`.
        """
        runs = self._runs(frame, width, height, tile_size)
        ids = self.frames[frame].ids
        tiles, rows = RowIntervals(
            rows=np.searchsorted(ids, runs.keys >> 32),
            tile_rows=runs.keys & _LOW_MASK,
            lo=runs.lo,
            hi=runs.hi,
        ).pairs(TileGrid(width, height, tile_size).tiles_x)
        return rows, ids[rows] << 32 | tiles

    def _runs(self, frame: int, width: int, height: int, tile_size: int) -> _Runs:
        """Cached kept-column runs of a frame, keyed ``ID << 32 | tile row``.

        Runs are Gaussian-major with tile rows ascending, and culled IDs
        ascend, so the keys come strictly ascending.

        Configurations in one family (:func:`_grain`) differ only in step,
        and a step up doubles the effective tile.  If the frame has cached a
        finer step of the family, the runs are halved up from the nearest
        one, one step at a time, each step cached (:meth:`_Runs.halve`,
        :func:`_derive`).  Only when none is cached does the kernel run.
        Equal steps hold equal runs, because doubling width, height and tile
        together is exact (see the module docstring).
        """

        def kernel_runs() -> _Runs:
            means2d, radii = self.scaled_geometry(frame, (width, height))
            kernel = row_intervals(means2d, radii, width, height, tile_size)
            return _Runs(
                keys=self.frames[frame].ids[kernel.rows] << 32 | kernel.tile_rows,
                lo=kernel.lo,
                hi=kernel.hi,
            )

        return _derive(
            self._run_cache[frame], _grain(width, height, tile_size), _Runs.halve, kernel_runs
        )

    def _nonempty(self, frame: int, width: int, height: int, tile_size: int) -> np.ndarray:
        """Cached ``(tiles_y, tiles_x)`` mask of a frame's nonempty tiles.

        Pooled up a family like the runs (:meth:`_runs`): a ``2t`` tile is
        nonempty iff one of its ``t`` subtiles is (see :meth:`_Runs.halve`),
        so a step up ORs 2x2 blocks (:func:`_pool_2x2`).  Only when the frame
        has no finer step of the family cached are the runs counted per tile.
        """

        def counted() -> np.ndarray:
            grid = TileGrid(width, height, tile_size)
            counts = self._runs(frame, width, height, tile_size).tile_counts(grid)
            return counts.reshape(grid.tiles_y, grid.tiles_x) > 0

        return _derive(
            self._nonempty_cache[frame], _grain(width, height, tile_size), _pool_2x2, counted
        )

    def frame_stream(
        self, frame: int, resolution: str | tuple[int, int], tile_size: int
    ) -> TileStream:
        """Tile-grouped stream of Gaussian rows at the target configuration.

        Values index the frame's :class:`FrameGeometry` arrays; cached per
        configuration.  Only the per-tile order differences need pairs
        grouped by tile; the other queries count runs.
        """
        width, height = self._resolve(resolution)
        key = (frame, width, height, tile_size)
        if key not in self._stream_cache:
            rows, keys = self._pairs(*key)
            num_tiles = TileGrid(width, height, tile_size).num_tiles
            self._stream_cache[key] = TileStream.from_pairs(keys & _LOW_MASK, rows, num_tiles)
        return self._stream_cache[key]

    def frame_workload(
        self, frame: int, resolution: str | tuple[int, int], tile_size: int
    ) -> FrameWorkload:
        """Paper-scale workload for one frame at one configuration (cached)."""
        width, height = self._resolve(resolution)
        key = (frame, width, height, tile_size)
        if key not in self._workload_cache:
            self._workload_cache[key] = self._frame_workload(frame, width, height, tile_size)
        return self._workload_cache[key]

    def _frame_workload(
        self, frame: int, width: int, height: int, tile_size: int
    ) -> FrameWorkload:
        runs = self._runs(frame, width, height, tile_size)
        geo = self.frames[frame]
        nonempty = int(np.count_nonzero(self._nonempty(frame, width, height, tile_size)))
        pairs_f = runs.num_pairs

        scale = self.count_scale
        # Counted on first read: the models that never read churn skip it.
        churn = (
            _Churn(self._runs(frame - 1, width, height, tile_size), runs, scale)
            if frame
            else 0.0
        )
        mean_occ = (pairs_f / nonempty * scale) if nonempty else 0.0
        return FrameWorkload(
            frame_index=frame,
            width=width,
            height=height,
            tile_size=tile_size,
            num_gaussians=self.functional_gaussians * scale,
            visible=geo.num_visible * scale,
            pairs=pairs_f * scale,
            incoming_pairs=churn,
            outgoing_pairs=churn,
            nonempty_tiles=nonempty,
            num_tiles=TileGrid(width, height, tile_size).num_tiles,
            mean_occupancy=mean_occ,
        )

    def sequence_workloads(
        self, resolution: str | tuple[int, int], tile_size: int
    ) -> list[FrameWorkload]:
        """Workloads for every captured frame."""
        return [
            self.frame_workload(i, resolution, tile_size) for i in range(self.num_frames)
        ]

    # ------------------------------------------------------------------
    # Temporal similarity (Figs. 6-7)
    # ------------------------------------------------------------------
    def shared_fraction_per_tile(
        self, frame: int, resolution: str | tuple[int, int], tile_size: int
    ) -> np.ndarray:
        """Per-tile share of the previous frame's Gaussians retained (Fig. 6).

        Only tiles nonempty in the previous frame are reported, in tile order.
        """
        if frame == 0:
            raise ValueError("frame 0 has no predecessor")
        width, height = self._resolve(resolution)
        grid = TileGrid(width, height, tile_size)
        prev = self._runs(frame - 1, width, height, tile_size)
        cur = self._runs(frame, width, height, tile_size)
        counts = prev.tile_counts(grid)
        kept = prev.overlap(cur).tile_counts(grid)
        # Both counts are exact integers, so the per-tile division reproduces
        # the historical per-tile ``mean()`` bit for bit.
        nonempty = counts > 0
        return kept[nonempty] / counts[nonempty]

    def order_differences(
        self, frame: int, resolution: str | tuple[int, int], tile_size: int
    ) -> np.ndarray:
        """Per-Gaussian sort-position shifts between consecutive frames (Fig. 7).

        For every tile, Gaussians shared between frames ``frame-1`` and
        ``frame`` get a continuous depth percentile (interpolated ECDF of the
        tile's depth distribution) in both frames; the reported value is the
        percentile shift converted to *positions at nominal occupancy* (a
        Gaussian's sort rank is its depth percentile times the table length,
        and table length grows linearly with Gaussian count).  The
        interpolation avoids the rank quantization a 10^3-x-reduced
        functional table would otherwise impose.

        Computed as one segmented program: a per-tile key intersection of the
        two frames' streams (:meth:`TileStream.segment_intersect`) followed by
        a segmented ECDF, bit-identical to the frozen per-tile
        ``np.intersect1d`` + ``np.interp`` loop preserved in
        :mod:`repro.hw.reference` — ``np.interp`` over an ECDF whose queries
        are population members reduces exactly to a run-end ``searchsorted``
        against ``np.linspace``'s ``j * step`` grid.
        """
        if frame == 0:
            raise ValueError("frame 0 has no predecessor")
        width, height = self._resolve(resolution)
        prev_stream = self.frame_stream(frame - 1, (width, height), tile_size)
        cur_stream = self.frame_stream(frame, (width, height), tile_size)
        prev_geo = self.frames[frame - 1]
        cur_geo = self.frames[frame]

        prev_ids = prev_geo.ids[prev_stream.values]
        cur_ids = cur_geo.ids[cur_stream.values]
        inter = prev_stream.segment_intersect(prev_ids, cur_stream, cur_ids)
        if inter.num_shared == 0:
            return np.empty(0)

        # Tiles sharing fewer than two Gaussians contribute nothing.
        seg_counts = inter.counts()
        keep_tile = seg_counts >= 2
        if not np.any(keep_tile):
            return np.empty(0)
        entry_tile = np.repeat(
            np.arange(prev_stream.num_tiles, dtype=np.int64), seg_counts
        )
        keep = keep_tile[entry_tile]

        tile_k = entry_tile[keep]
        dp = prev_geo.depths[prev_stream.values[inter.self_indices[keep]]]
        dc = cur_geo.depths[cur_stream.values[inter.other_indices[keep]]]

        kept_counts = seg_counts[keep_tile]
        seg_id = np.repeat(np.arange(kept_counts.shape[0], dtype=np.int64), kept_counts)
        seg_starts = np.zeros(kept_counts.shape[0], dtype=np.int64)
        np.cumsum(kept_counts[:-1], out=seg_starts[1:])
        seg_len = kept_counts[seg_id]

        pct_prev = _segmented_ecdf(dp, seg_id, seg_starts, seg_len)
        pct_cur = _segmented_ecdf(dc, seg_id, seg_starts, seg_len)

        # Position shift at nominal occupancy: percentile delta times the
        # tile's *full* current table length, scaled to the nominal count.
        nominal_occ = cur_stream.counts()[tile_k] * self.count_scale
        return np.abs(pct_cur - pct_prev) * nominal_occ


@dataclass(frozen=True)
class _Runs:
    """A frame's kept-column runs (see :func:`repro.pipeline.tiling.row_intervals`).

    Run ``k`` keeps tile columns ``lo[k]..hi[k]`` of one Gaussian's tile row;
    ``keys[k]`` is that Gaussian's ``ID << 32 | tile row``, strictly
    ascending.
    """

    keys: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @property
    def num_pairs(self) -> int:
        """Kept tile-Gaussian pairs."""
        return int((self.hi - self.lo).sum()) + self.keys.shape[0]

    def tile_counts(self, grid: TileGrid) -> np.ndarray:
        """Pairs per tile: one difference array per tile row, one ``cumsum``."""
        stride = grid.tiles_x + 1
        size = grid.tiles_y * stride
        base = (self.keys & _LOW_MASK) * stride
        diff = np.bincount(base + self.lo, minlength=size)
        diff -= np.bincount(base + self.hi + 1, minlength=size)
        return np.cumsum(diff.reshape(grid.tiles_y, stride), axis=1)[:, :-1].ravel()

    def halve(self) -> "_Runs":
        """These runs at twice the tile size, on the same image.

        Exact, with no kernel call:

        * a ``2t`` tile's rectangle is the union of its (up to) 2x2 ``t``
          subtiles, with the same edge floats and the same clamps to the
          image.  The kept test's nearest point on that union is the nearest
          point of one subtile, and ``dx^2`` and ``dy^2`` grow away from it,
          so a ``2t`` tile is kept iff one of its subtiles is;
        * the bbox halves too: ``floor(e / 2t) == floor(floor(e / t) / 2)``,
          and the last column or row ``ceil(n / 2t) - 1`` is the last ``t``
          one halved.  A ``2t`` tile in the bbox has a subtile in it, and the
          nearest subtile is one of those, since the center column and row
          (clipped to the grid) lie in the bbox;
        * every nonempty run of a Gaussian holds the Gaussian's center
          column, so the kept columns of its one or two fine rows overlap
          and a coarse row keeps one interval.

        So the key ``ID << 32 | row`` becomes ``ID << 32 | row >> 1``, and
        each coarse row takes ``min(lo) >> 1`` and ``max(hi) >> 1`` over its
        one or two fine runs: the first and the last run of its group.
        """
        ceil_half = self.keys & _LOW_MASK
        ceil_half += 1
        ceil_half >>= 1
        keys = self.keys - ceil_half  # row - ceil(row / 2) == row >> 1
        n = keys.shape[0]
        first_of_group = np.empty(n, dtype=bool)
        first_of_group[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first_of_group[1:])
        first = np.flatnonzero(first_of_group)
        last = np.empty_like(first)
        last[:-1] = first[1:]
        last[:-1] -= 1
        last[-1:] = n - 1
        lo = np.minimum(self.lo[first], self.lo[last])
        lo >>= 1
        hi = np.maximum(self.hi[first], self.hi[last])
        hi >>= 1
        return _Runs(keys[first], lo, hi)

    def _matched(self, other: "_Runs") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(mine, lo, hi)``: the runs of ``self`` whose key ``other`` holds too.

        ``mine`` indexes them, and ``lo``/``hi`` intersect each with its
        partner (empty where ``lo > hi``).  A pair is shared iff its
        Gaussian's run in the same tile row exists in both frames and both
        intervals hold its column.  Both key arrays are sorted, so one
        ``searchsorted`` matches the runs.
        """
        if not other.keys.shape[0]:
            return np.empty(0, dtype=np.int64), self.lo[:0], self.hi[:0]
        pos = np.minimum(np.searchsorted(other.keys, self.keys), other.keys.shape[0] - 1)
        mine = np.flatnonzero(other.keys[pos] == self.keys)
        theirs = pos[mine]
        lo = np.maximum(self.lo[mine], other.lo[theirs])
        hi = np.minimum(self.hi[mine], other.hi[theirs])
        return mine, lo, hi

    def overlap(self, other: "_Runs") -> "_Runs":
        """The pairs held by both frames, as runs keyed like ``self``'s."""
        mine, lo, hi = self._matched(other)
        both = lo <= hi
        return _Runs(self.keys[mine][both], lo[both], hi[both])

    def shared_pairs(self, other: "_Runs") -> int:
        """The number of pairs held by both frames: :meth:`overlap`, counted."""
        _, lo, hi = self._matched(other)
        hi -= lo
        hi += 1
        return int(np.maximum(hi, 0, out=hi).sum())


def _grain(width: int, height: int, tile_size: int) -> tuple[tuple[int, int, int], int]:
    """``(family, step)`` of a configuration; configurations with equal ones hold equal runs.

    The family strips the common power of two from width and height, and
    the power of two from the tile; the step is the tile's exponent less
    the image's.  Doubling width, height and tile together keeps both, and
    doubling the tile alone adds one to the step.
    """
    k = min(_twos(width), _twos(height))
    j = _twos(tile_size)
    return (width >> k, height >> k, tile_size >> j), j - k


def _twos(n: int) -> int:
    """The exponent of the largest power of two dividing ``n > 0``."""
    return (n & -n).bit_length() - 1


def _derive(cache: dict, grain: tuple, coarsen, compute):
    """A frame's cached value at ``grain = (family, step)``, derived if it can be.

    If the frame has cached a finer step of the family, ``coarsen`` steps
    the nearest one up, one step at a time, caching each step.  Only when
    none is cached does ``compute`` run.  The lookup scans one frame's few
    entries.
    """
    if grain in cache:
        return cache[grain]
    family, step = grain
    finer = [s for f, s in cache if f == family and s < step]
    if not finer:
        value = cache[grain] = compute()
        return value
    s = max(finer)
    value = cache[family, s]
    while s < step:
        value = coarsen(value)
        s += 1
        cache[family, s] = value
    return value


def _pool_2x2(nonempty: np.ndarray) -> np.ndarray:
    """A nonempty-tile mask at twice the tile size: each 2x2 block ORed.

    An odd grid's last row or column pools with ``False`` padding, since
    its ``2t`` tiles hold one subtile along that axis.  Strided slices
    cost far less here than ``reshape(...).any(axis=(1, 3))``, whose
    reduction carries a large fixed cost.
    """
    rows, cols = nonempty.shape
    if rows % 2 or cols % 2:
        padded = np.zeros((rows + rows % 2, cols + cols % 2), dtype=bool)
        padded[:rows, :cols] = nonempty
        nonempty = padded
    top, bottom = nonempty[0::2], nonempty[1::2]
    pooled = top[:, 0::2] | top[:, 1::2]
    pooled |= bottom[:, 0::2]
    pooled |= bottom[:, 1::2]
    return pooled


def _churn_counts(prev: _Runs, cur: _Runs) -> tuple[int, int]:
    """(incoming, outgoing) pair counts of ``cur`` vs. the previous frame ``prev``.

    The overlaps of the two frames' matched runs are the ``shared`` pairs:
    the current frame's retained pairs and the previous frame's surviving
    ones.  They are counted, not built (:meth:`_Runs.shared_pairs`).
    """
    shared = prev.shared_pairs(cur)
    return cur.num_pairs - shared, prev.num_pairs - shared


class _Churn:
    """A frame's churn against its predecessor, counted on first read.

    It holds the two frames' runs and the count scale, not the
    :class:`WorkloadModel`: with no reference cycle back to the model,
    dropping a model frees it and its workloads at once.
    """

    def __init__(self, prev: _Runs, cur: _Runs, scale: float) -> None:
        self._prev = prev
        self._cur = cur
        self._scale = scale

    @cached_property
    def counts(self) -> tuple[float, float]:
        """Scaled ``(incoming, outgoing)`` pairs."""
        incoming, outgoing = _churn_counts(self._prev, self._cur)
        return incoming * self._scale, outgoing * self._scale


def _segmented_ecdf(
    depths: np.ndarray,
    seg_id: np.ndarray,
    seg_starts: np.ndarray,
    seg_len: np.ndarray,
) -> np.ndarray:
    """Per-segment continuous ECDF percentile of each entry's depth.

    Replicates ``np.interp(d, np.sort(d), np.linspace(0, 1, n))`` for every
    segment at once.  When every query is a member of the population,
    ``np.interp`` lands exactly on the knot of the query's *last* occurrence
    in the sorted population, i.e. ``linspace[j]`` with
    ``j = searchsorted(sorted, q, side='right') - 1``; and ``np.linspace``
    is ``j * (1 / (n - 1))`` with the final knot forced to exactly ``1.0``.
    Both identities are replayed here per segment: one ``(segment, depth)``
    lexsort, run-end indices for the duplicate-aware ``j``, and the
    ``j * step`` grid.  Segments must have length >= 2.
    """
    total = depths.shape[0]
    order = np.lexsort((depths, seg_id))
    ds = depths[order]
    # Segments are contiguous blocks before and after the lexsort, so the
    # per-entry segment metadata is order-invariant.
    is_end = np.empty(total, dtype=bool)
    is_end[-1] = True
    is_end[:-1] = (seg_id[1:] != seg_id[:-1]) | (ds[1:] != ds[:-1])
    ends = np.flatnonzero(is_end)
    run_end = ends[np.searchsorted(ends, np.arange(total), side="left")]
    j = run_end - seg_starts[seg_id]

    step = 1.0 / (seg_len - 1)
    pct_sorted = np.where(j == seg_len - 1, 1.0, j * step)
    pct = np.empty(total, dtype=np.float64)
    pct[order] = pct_sorted
    return pct
