"""Property-based tests (hypothesis) of Neo's reuse-and-update sorter.

Invariants checked:

* the vectorized chunk labels reproduce :func:`chunk_ranges`' grid;
* Dynamic Partial Sorting permutes its input (the multiset of keys and the
  key/value pairing survive), and over alternating-boundary iterations the
  maximum displacement from the sorted position never grows; the
  segmented form equals the per-table form on every table of a stream;
* the MSU+ merge equals a two-pointer streaming merge — including a
  chunk-sorted (not fully sorted) a-side and invalid entries on both sides;
* the dense ID -> row index of ``lookup_rows`` answers exactly as the
  argsort + ``searchsorted`` join it replaced, absent and repeated IDs and
  empty inputs included;
* after every ``sort_frame``, each tile's valid table IDs contain the
  tile's current IDs;
* under a static camera, Neo's sorted IDs equal the exact sort by frame 2;
* with fresh depths and ``chunk_size >= 2 x`` max tile occupancy, every
  frame's render list, minus lazily deleted entries, is the exact sort.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.dynamic_partial_sort import (
    chunk_ids,
    chunk_ranges,
    dynamic_partial_sort,
    max_displacement,
    segmented_partial_sort,
)
from repro.core.merge_unit import MergeStats, merge_sorted
from repro.core.reuse_update import ReuseUpdateSorter, lookup_rows
from repro.pipeline import Renderer
from repro.pipeline.sorting import sort_tiles
from repro.scene import Camera, load_scene, look_at
from repro.scene.datasets import archetype_trajectory

#: Keys drawn from a small grid so ties are common.
tied_keys = st.lists(st.integers(0, 12).map(lambda k: k * 0.5), max_size=80)
chunk_sizes = st.sampled_from([2, 3, 4, 5, 8, 16])


@given(st.integers(0, 200), st.integers(2, 40), st.integers(-3, 5))
def test_chunk_ids_label_chunk_ranges(length, chunk_size, iteration):
    labels = chunk_ids(np.arange(length), chunk_size, iteration)
    ranges = chunk_ranges(length, chunk_size, iteration)
    assert labels.tolist() == [c for c, (s, e) in enumerate(ranges) for _ in range(s, e)]


@given(tied_keys, chunk_sizes, st.integers(0, 5))
def test_dps_permutes_and_never_grows_displacement(keys, chunk_size, first):
    original = np.asarray(keys, dtype=np.float64)
    keys, values = original, np.arange(original.shape[0])
    displacement = max_displacement(keys)
    for iteration in range(first, first + 6):
        keys, values, _ = dynamic_partial_sort(
            keys, values, iteration=iteration, chunk_size=chunk_size
        )
        assert np.array_equal(np.sort(values), np.arange(original.shape[0]))
        assert np.array_equal(keys, original[values])
        now = max_displacement(keys)
        assert now <= displacement
        displacement = now


@given(st.lists(tied_keys, max_size=6), chunk_sizes, st.integers(0, 3), st.integers(1, 2))
def test_segmented_dps_equals_per_table_dps(tables, chunk_size, iteration, passes):
    keys = np.asarray([k for t in tables for k in t], dtype=np.float64)
    offsets = np.concatenate([[0], np.cumsum([len(t) for t in tables], dtype=np.int64)])
    values = np.arange(keys.shape[0])
    got_keys, got_values, got_stats = segmented_partial_sort(
        keys, values, offsets, iteration, chunk_size, passes
    )
    chunks = 0
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        want_keys, want_values, stats = dynamic_partial_sort(
            keys[lo:hi], values[lo:hi], iteration, chunk_size, passes
        )
        assert np.array_equal(got_keys[lo:hi], want_keys)
        assert np.array_equal(got_values[lo:hi], want_values)
        chunks += stats.chunks
    assert got_stats.chunks == chunks
    assert got_stats.entries_read == got_stats.entries_written == passes * keys.shape[0]


def _streaming_merge(keys_a, values_a, valid_a, keys_b, values_b, valid_b):
    """The MSU+ as a two-pointer stream: filter, then emit a while a <= b."""
    a = [(k, v) for k, v, ok in zip(keys_a, values_a, valid_a) if ok]
    b = [(k, v) for k, v, ok in zip(keys_b, values_b, valid_b) if ok]
    out, i, j = [], 0, 0
    while i < len(a) or j < len(b):
        if j == len(b) or (i < len(a) and a[i][0] <= b[j][0]):
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return [k for k, _ in out], [v for _, v in out]


@given(
    tied_keys,
    tied_keys,
    chunk_sizes,
    st.integers(0, 3),
    st.randoms(use_true_random=False),
)
def test_merge_equals_streaming_merge(keys_a, keys_b, chunk_size, iteration, random):
    # The a-side is a table after one DPS pass: chunk-sorted, not sorted.
    keys_a, values_a, _ = dynamic_partial_sort(
        np.asarray(keys_a, dtype=np.float64),
        np.arange(len(keys_a)),
        iteration=iteration,
        chunk_size=chunk_size,
    )
    keys_b = np.sort(np.asarray(keys_b, dtype=np.float64))
    values_b = np.arange(keys_b.shape[0]) + 1000
    valid_a = np.array([random.random() < 0.8 for _ in keys_a], dtype=bool)
    valid_b = np.array([random.random() < 0.8 for _ in keys_b], dtype=bool)
    stats = MergeStats()
    got_keys, got_values = merge_sorted(
        keys_a, values_a, keys_b, values_b, valid_a=valid_a, valid_b=valid_b, stats=stats
    )
    want_keys, want_values = _streaming_merge(
        keys_a, values_a, valid_a, keys_b, values_b, valid_b
    )
    assert got_keys.tolist() == want_keys
    assert got_values.tolist() == want_values
    assert stats.elements_in == keys_a.shape[0] + keys_b.shape[0]
    assert stats.elements_out == len(want_keys)
    assert stats.invalid_dropped == int((~valid_a).sum() + (~valid_b).sum())


_SCENE = load_scene("family", num_gaussians=300)


def _lookup_rows_oracle(projected_ids, ids):
    """The stable-argsort + ``searchsorted`` join ``lookup_rows`` replaced."""
    if projected_ids.shape[0] == 0:
        return np.full(ids.shape[0], -1, dtype=np.int64)
    order = np.argsort(projected_ids, kind="stable")
    pos = np.minimum(np.searchsorted(projected_ids[order], ids), order.shape[0] - 1)
    rows = order[pos]
    return np.where(projected_ids[rows] == ids, rows, -1)


@example(projected=[], queries=[4, 4])
@example(projected=[2, 0], queries=[])
@example(projected=[], queries=[])
@given(
    projected=st.lists(st.integers(0, 60), unique=True, max_size=40),
    queries=st.lists(st.integers(0, 80), max_size=60),
)
def test_lookup_rows_equals_search_join(projected, queries):
    # A frame projects each scene index at most once; queries repeat IDs
    # and name IDs absent from the frame or past its largest projected one.
    projected_ids = np.asarray(projected, dtype=np.int64)
    ids = np.asarray(queries, dtype=np.int64)
    got = lookup_rows(projected_ids, ids)
    want = _lookup_rows_oracle(projected_ids, ids)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


def _orbit_camera(angle: float) -> Camera:
    eye = np.array([6.0 * np.cos(angle), 1.2, 6.0 * np.sin(angle)])
    return Camera.from_fov(
        width=96, height=54, fov_y_degrees=60.0,
        world_to_camera=look_at(eye, np.zeros(3)), far=200.0,
    )


_render_settings = settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_render_settings
@given(
    st.floats(0.0, 2 * np.pi),
    st.lists(st.floats(-0.3, 0.3), min_size=1, max_size=5),
    st.sampled_from([4, 16, 256]),
    st.booleans(),
)
def test_valid_table_covers_current_ids(start, steps, chunk_size, defer):
    sorter = ReuseUpdateSorter(chunk_size=chunk_size, defer_depth_update=defer)
    sort_frame = sorter.sort_frame
    checked = []

    def sort_and_check(assignment, frame_index):
        # Between sort_frame and the raster feedback: every Gaussian in a
        # tile now has a valid entry in that tile's table.
        result = sort_frame(assignment, frame_index)
        table = sorter.table
        for tile in assignment.nonempty_tiles().tolist():
            valid_ids = set(table.ids_for(tile)[table.valid_for(tile)].tolist())
            assert set(assignment.tile_ids(tile).tolist()) <= valid_ids
        checked.append(frame_index)
        return result

    sorter.sort_frame = sort_and_check
    renderer = Renderer(_SCENE, strategy=sorter)
    angle = start
    for frame, step in enumerate([0.0] + steps):
        angle += step
        renderer.render(_orbit_camera(angle), frame_index=frame)
    assert checked == list(range(len(steps) + 1))


@_render_settings
@given(st.floats(0.0, 2 * np.pi), st.sampled_from([4, 16, 256]), st.integers(1, 2))
def test_static_camera_converges_to_exact_sort(angle, chunk_size, passes):
    camera = _orbit_camera(angle)
    renderer = Renderer(_SCENE, strategy=ReuseUpdateSorter(chunk_size=chunk_size, passes=passes))
    for frame in range(4):
        record = renderer.render(camera, frame_index=frame)
        if frame >= 2:
            exact = sort_tiles(record.assignment)
            assert np.array_equal(record.sorted_tiles.stream.offsets, exact.stream.offsets)
            assert np.array_equal(record.sorted_tiles.ids, exact.ids)


_MOTION_SCENE = load_scene("family", num_gaussians=3000)

#: Above twice the largest tile occupancy of every sequence below (906).
_WHOLE_TILE_CHUNK = 16384


def _tiles_off_exact_sort(trajectory: str, tile_size: int, defer: bool) -> list[int]:
    """Per frame: tiles whose Neo render list is not the exact sort.

    Entries that are not current pairs of their tile (lazily deleted ones
    still awaiting their merge) are dropped before comparing.
    """
    cameras = archetype_trajectory("family", trajectory, num_frames=6, width=320, height=180)
    sorter = ReuseUpdateSorter(chunk_size=_WHOLE_TILE_CHUNK, defer_depth_update=defer)
    renderer = Renderer(_MOTION_SCENE, tile_size=tile_size, strategy=sorter)
    differing = []
    for record in renderer.render_sequence(cameras):
        exact = sort_tiles(record.assignment)
        # Even frames offset the chunk grid by C/2, so a whole tile fits in
        # one chunk only when C >= 2 x its occupancy.
        assert 2 * int(exact.stream.counts().max()) <= _WHOLE_TILE_CHUNK
        neo = record.sorted_tiles
        off = 0
        for tile in range(exact.num_tiles):
            current = exact.ids_for(tile)
            ids = neo.ids_for(tile)
            off += not np.array_equal(ids[np.isin(ids, current)], current)
        differing.append(off)
    return differing


@pytest.mark.parametrize("tile_size", [16, 64])
@pytest.mark.parametrize("trajectory", ["orbit", "shake", "teleport"])
def test_whole_tile_chunks_with_fresh_depths_match_exact_sort(trajectory, tile_size):
    assert _tiles_off_exact_sort(trajectory, tile_size, defer=False) == [0] * 6


@pytest.mark.parametrize("trajectory", ["orbit", "shake", "teleport"])
def test_stale_depths_leave_tiles_off_exact_sort(trajectory):
    # The deferred depth update sorts on one-frame-stale depths, so the
    # same whole-tile chunks do not reproduce the exact order.
    assert sum(_tiles_off_exact_sort(trajectory, 16, defer=True)) > 0
