"""Golden pin: the stream Neo sorter against the frozen per-tile loop.

:class:`repro.core.reuse_update.ReuseUpdateSorter` runs every step of
reuse-and-update sorting once per frame over a flat table stream;
:class:`repro.core.reference.ReuseUpdateSorter` is the per-tile loop it
replaced.  Driven through the same frames, the two must agree bit for bit:
the sorted ``rows``/``ids``/``depths`` streams, every ``FrameSortStats``
field (reorder and merge counters and the traffic ledger included), the
rendered images, and the carried tables themselves.  The sequences cover
chunk sizes, pass counts, eager and deferred depth updates, frames that see
nothing, resolution changes that shrink and regrow the tile grid, and a
Gaussian that re-enters its tile the frame after its valid bit is cleared.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import reference
from repro.core.reuse_update import ReuseUpdateSorter
from repro.pipeline import Renderer
from repro.pipeline.rasterizer import RasterResult
from repro.pipeline.tiling import TileAssignment, TileStream
from repro.scene import Camera, load_scene, look_at


def _camera(angle: float, width: int, height: int, away: bool = False) -> Camera:
    if away:  # sees nothing: every tile of the frame is empty
        eye, target = np.array([0.0, 300.0, 0.0]), np.array([0.0, 600.0, 0.0])
    else:
        eye = np.array([6.0 * np.cos(angle), 1.2, 6.0 * np.sin(angle)])
        target = np.zeros(3)
    return Camera.from_fov(
        width=width,
        height=height,
        fov_y_degrees=60.0,
        world_to_camera=look_at(eye, target),
        far=200.0,
    )


#: (angle step index, width, height, looks away) per frame: an orbit with a
#: blackout, a shrink (tables past the grid ride along), and a regrow past
#: the original grid (carried tables reused, new tiles initialised).
SEQUENCE = [
    (0, 160, 90, False),
    (1, 160, 90, False),
    (2, 160, 90, False),
    (3, 160, 90, True),
    (4, 160, 90, False),
    (5, 160, 90, False),
    (6, 96, 54, False),
    (7, 96, 54, False),
    (8, 192, 108, False),
    (9, 192, 108, False),
    (10, 160, 90, False),
]


@pytest.fixture(scope="module")
def scene():
    return load_scene("family", num_gaussians=500)


def _cameras(step: float = 0.04) -> list[Camera]:
    return [_camera(k * step, w, h, away) for k, w, h, away in SEQUENCE]


def _assert_tables_match(stream_sorter, ref_sorter):
    table = stream_sorter.table
    for tile in range(table.num_tiles):
        ref = ref_sorter.tables.get(tile)
        if ref is None:
            assert table.ids_for(tile).shape[0] == 0
            continue
        assert np.array_equal(table.ids_for(tile), ref.ids)
        assert np.array_equal(table.depths_for(tile), ref.depths)
        assert np.array_equal(table.valid_for(tile), ref.valid)
    assert all(tile < table.num_tiles or len(t) == 0 for tile, t in ref_sorter.tables.items())


def _run_lockstep(scene, cameras, tile_size=16, **kwargs):
    stream_sorter = ReuseUpdateSorter(**kwargs)
    ref_sorter = reference.ReuseUpdateSorter(**kwargs)
    got_renderer = Renderer(scene, tile_size=tile_size, strategy=stream_sorter)
    want_renderer = Renderer(scene, tile_size=tile_size, strategy=ref_sorter)
    for i, camera in enumerate(cameras):
        got = got_renderer.render(camera, frame_index=i)
        want = want_renderer.render(camera, frame_index=i)
        g, w = got.sorted_tiles, want.sorted_tiles
        assert np.array_equal(g.stream.offsets, w.stream.offsets), f"frame {i}"
        assert np.array_equal(g.stream.values, w.stream.values), f"frame {i}"
        assert g.stream.values.dtype == w.stream.values.dtype
        assert np.array_equal(g.ids, w.ids), f"frame {i}"
        assert g.ids.dtype == w.ids.dtype
        assert np.array_equal(g.depths, w.depths), f"frame {i}"
        assert g.depths.dtype == w.depths.dtype
        assert np.array_equal(got.image, want.image), f"frame {i}"
        assert stream_sorter.frame_stats[-1] == ref_sorter.frame_stats[-1], f"frame {i}"
        _assert_tables_match(stream_sorter, ref_sorter)
    assert stream_sorter.total_traffic() == ref_sorter.total_traffic()
    return stream_sorter


@pytest.mark.parametrize("chunk_size", [4, 16, 256])
@pytest.mark.parametrize("passes", [1, 2])
@pytest.mark.parametrize("defer_depth_update", [True, False])
def test_stream_sorter_matches_reference(scene, chunk_size, passes, defer_depth_update):
    sorter = _run_lockstep(
        scene,
        _cameras(),
        chunk_size=chunk_size,
        passes=passes,
        defer_depth_update=defer_depth_update,
    )
    stats = sorter.frame_stats
    # The sequence exercises what it claims to: reuse, churn, blackout,
    # and initialisation of tiles a regrown grid adds.
    assert stats[3].table_entries_after > 0 and stats[4].tiles_reused > 0
    assert stats[8].tiles_initialized > 0 and stats[8].tiles_reused > 0
    assert sum(s.incoming_entries for s in stats[1:]) > 0
    assert sum(s.deleted_entries for s in stats[1:]) > 0


def test_fast_camera_matches_reference(scene):
    # Large steps: heavy churn and tables far from sorted, so the merge
    # sees chunk-sorted tables with non-monotone running depths.
    _run_lockstep(scene, _cameras(step=0.35), chunk_size=4)


def test_neo_tile_size_matches_reference(scene):
    _run_lockstep(scene, _cameras(), tile_size=64, chunk_size=16)


def test_hardware_units_match_reference(scene):
    # The BSU/MSU+ models sort chunk by chunk; their comparator counts
    # land in the reorder stats, which the lockstep compares too.
    sorter = _run_lockstep(
        scene, _cameras()[:5], chunk_size=32, passes=2, use_hardware_units=True
    )
    assert sorter.frame_stats[2].reorder.bitonic is not None


def _synthetic_frame(rng, base_depth, home_tile, num_tiles):
    """A projection with shuffled IDs and tied depths, binned into tiles."""
    ids = rng.permutation(base_depth.shape[0])[: rng.integers(40, base_depth.shape[0])]
    # Quarter-unit depths: many exact ties, inside a tile and across sources.
    depths = np.round((base_depth[ids] + rng.normal(0.0, 0.6, ids.shape[0])) * 4) / 4
    tiles, rows = [], []
    for row, gid in enumerate(ids):
        for tile in {home_tile[gid] % num_tiles, rng.integers(0, num_tiles)}:
            tiles.append(tile)
            rows.append(row)
    stream = TileStream.from_pairs(np.asarray(tiles), np.asarray(rows), num_tiles)
    projected = SimpleNamespace(ids=ids.astype(np.int64), depths=depths)
    return TileAssignment(grid=None, stream=stream, projected=projected)


def _synthetic_feedback(rng, sorted_tiles):
    """Valid bits as the rasterizer reports them, with the odd gap."""
    bits = {}
    for tile in sorted_tiles.stream.nonempty().tolist():
        n = int(sorted_tiles.counts()[tile])
        roll = rng.random()
        if roll < 0.1:
            continue  # no bits for the tile: everything rendered survives
        if roll < 0.15:
            n += 1  # misaligned bits are ignored the same way
        bits[tile] = rng.random(n) < 0.85
    return RasterResult(image=np.empty(0), valid_bits=bits)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("defer_depth_update", [True, False])
def test_synthetic_streams_match_reference(seed, defer_depth_update):
    # Shuffled projection order and tied depths tell apart the tie-breaks
    # the rendered scenes never exercise: an initialised tile sorts stably
    # on (depth, arrival), incoming entries on (depth, ID), and table
    # entries win ties in the merge.
    rng = np.random.default_rng(seed)
    base_depth = rng.uniform(1.0, 12.0, 160)
    home_tile = rng.integers(0, 64, 160)
    kwargs = dict(chunk_size=int(rng.choice([4, 6, 16])), passes=int(rng.integers(1, 3)),
                  defer_depth_update=defer_depth_update)
    got_sorter = ReuseUpdateSorter(**kwargs)
    want_sorter = reference.ReuseUpdateSorter(**kwargs)
    for frame in range(10):
        num_tiles = int(rng.choice([5, 8, 12]))
        assignment = _synthetic_frame(rng, base_depth, home_tile, num_tiles)
        got = got_sorter.sort_frame(assignment, frame)
        want = want_sorter.sort_frame(assignment, frame)
        assert np.array_equal(got.stream.offsets, want.stream.offsets)
        assert np.array_equal(got.stream.values, want.stream.values)
        assert np.array_equal(got.ids, want.ids)
        assert np.array_equal(got.depths, want.depths)
        feedback = _synthetic_feedback(rng, want)
        got_sorter.observe_raster(frame, got, feedback)
        want_sorter.observe_raster(frame, want, feedback)
        assert got_sorter.frame_stats[-1] == want_sorter.frame_stats[-1]
        _assert_tables_match(got_sorter, want_sorter)


def _hand_frame(ids, depths, tiles):
    """Gaussian ``ids[k]`` at ``depths[k]``, assigned to tile ``tiles[k]`` of two."""
    stream = TileStream.from_pairs(np.asarray(tiles), np.arange(len(ids)), num_tiles=2)
    projected = SimpleNamespace(
        ids=np.asarray(ids, dtype=np.int64), depths=np.asarray(depths, dtype=np.float64)
    )
    return TileAssignment(grid=None, stream=stream, projected=projected)


def test_invalidated_gaussian_reassigned_comes_back_as_incoming():
    # Frame 0 clears Gaussian 7's valid bit in tile 0; frame 1 assigns it
    # to tile 0 again.  The merge drops the invalid entry, so 7 must come
    # back through the incoming path or it would vanish for a frame.
    frame = _hand_frame([3, 7, 5, 9], [1.0, 2.0, 3.0, 1.5], [0, 0, 0, 1])
    got_sorter = ReuseUpdateSorter(chunk_size=4)
    want_sorter = reference.ReuseUpdateSorter(chunk_size=4)
    feedback = RasterResult(image=np.empty(0), valid_bits={0: np.array([True, False, True])})
    for frame_index in range(2):
        got = got_sorter.sort_frame(frame, frame_index)
        want = want_sorter.sort_frame(frame, frame_index)
        assert np.array_equal(got.stream.offsets, want.stream.offsets)
        assert np.array_equal(got.ids, want.ids)
        assert np.array_equal(got.depths, want.depths)
        got_sorter.observe_raster(frame_index, got, feedback)
        want_sorter.observe_raster(frame_index, want, feedback)
        assert got_sorter.frame_stats[-1] == want_sorter.frame_stats[-1]
        _assert_tables_match(got_sorter, want_sorter)
    reentered = got_sorter.frame_stats[1]
    assert reentered.incoming_entries == 1 and reentered.deleted_entries == 1
    assert got.ids_for(0).tolist() == [3, 7, 5]


def test_reset_drops_the_table_stream(scene):
    sorter = ReuseUpdateSorter()
    Renderer(scene, strategy=sorter).render(_camera(0.0, 160, 90))
    assert len(sorter.table) > 0
    sorter.reset()
    assert len(sorter.table) == 0 and sorter.table.num_tiles == 0
    assert not sorter.frame_stats
