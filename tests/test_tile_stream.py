"""Golden tests for the flat tile-stream (SoA) core.

Every segmented helper on :class:`repro.pipeline.tiling.TileStream` is
cross-checked against a dict-of-arrays reference on randomized workloads —
including empty tiles, single-splat tiles, and everything-in-one-tile.
"""

import numpy as np
import pytest

from repro.pipeline.tiling import SegmentIntersection, TileStream


# ---------------------------------------------------------------------------
# Dict-based reference implementations
# ---------------------------------------------------------------------------


def _ref_group(tiles, values, num_tiles):
    """Stable group-by-tile into a dict, the layout the stream replaced."""
    groups = {t: [] for t in range(num_tiles)}
    for tile, value in zip(tiles.tolist(), values.tolist()):
        groups[tile].append(value)
    return {t: np.array(v, dtype=values.dtype) for t, v in groups.items()}


def _ref_reduce(stream, data, ufunc, initial):
    out = []
    for tile in range(stream.num_tiles):
        seg = data[stream.offsets[tile] : stream.offsets[tile + 1]]
        out.append(ufunc.reduce(seg) if seg.shape[0] else initial)
    return np.array(out)


def _ref_intersect(stream_a, keys_a, stream_b, keys_b):
    """Per-tile np.intersect1d over the two streams' key segments."""
    per_tile = {}
    for tile in range(stream_a.num_tiles):
        ka = keys_a[stream_a.offsets[tile] : stream_a.offsets[tile + 1]]
        kb = keys_b[stream_b.offsets[tile] : stream_b.offsets[tile + 1]]
        per_tile[tile] = np.intersect1d(ka, kb, assume_unique=True)
    return per_tile


def _random_pairs(rng, num_tiles, num_pairs, shape="uniform"):
    if num_pairs == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    if shape == "one_tile":
        tiles = np.full(num_pairs, int(rng.integers(num_tiles)), dtype=np.int64)
    elif shape == "single_splat":
        # At most one pair per tile: a random subset of tiles, one value each.
        chosen = rng.permutation(num_tiles)[: min(num_pairs, num_tiles)]
        tiles = np.sort(chosen).astype(np.int64)
        tiles = rng.permutation(tiles)
    else:
        # Uniform with gaps: roughly half the tiles stay empty.
        pool = rng.permutation(num_tiles)[: max(num_tiles // 2, 1)]
        tiles = rng.choice(pool, size=num_pairs).astype(np.int64)
    values = rng.integers(0, 10_000, size=tiles.shape[0]).astype(np.int64)
    return tiles, values


WORKLOADS = [
    ("uniform", 37, 400),
    ("uniform", 64, 64),
    ("one_tile", 16, 100),
    ("single_splat", 50, 30),
    ("uniform", 5, 0),  # fully empty stream
    ("single_splat", 1, 1),  # one tile, one splat
]


# ---------------------------------------------------------------------------
# TileStream construction and shape queries
# ---------------------------------------------------------------------------


class TestTileStreamGolden:
    @pytest.mark.parametrize("shape,num_tiles,num_pairs", WORKLOADS)
    def test_from_pairs_matches_dict_grouping(self, shape, num_tiles, num_pairs):
        rng = np.random.default_rng(hash((shape, num_tiles, num_pairs)) % 2**32)
        tiles, values = _random_pairs(rng, num_tiles, num_pairs, shape)
        stream = TileStream.from_pairs(tiles, values, num_tiles)
        ref = _ref_group(tiles, values, num_tiles)

        assert stream.num_tiles == num_tiles
        assert stream.num_pairs == num_pairs
        for tile in range(num_tiles):
            np.testing.assert_array_equal(stream.rows_for(tile), ref[tile])

    @pytest.mark.parametrize("shape,num_tiles,num_pairs", WORKLOADS)
    def test_counts_tile_of_nonempty(self, shape, num_tiles, num_pairs):
        rng = np.random.default_rng(hash((shape, num_tiles)) % 2**32)
        tiles, values = _random_pairs(rng, num_tiles, num_pairs, shape)
        stream = TileStream.from_pairs(tiles, values, num_tiles)
        ref = _ref_group(tiles, values, num_tiles)

        counts = stream.counts()
        np.testing.assert_array_equal(
            counts, [ref[t].shape[0] for t in range(num_tiles)]
        )
        np.testing.assert_array_equal(
            stream.tile_of(),
            np.repeat(np.arange(num_tiles), counts),
        )
        np.testing.assert_array_equal(
            stream.nonempty(),
            [t for t in range(num_tiles) if ref[t].shape[0]],
        )

    def test_from_lists_round_trip(self):
        rng = np.random.default_rng(7)
        per_tile = [
            rng.integers(0, 100, size=int(rng.integers(0, 6))).astype(np.int64)
            for _ in range(23)
        ]
        stream = TileStream.from_lists(per_tile)
        assert stream.num_tiles == len(per_tile)
        for tile, rows in enumerate(per_tile):
            view = stream.rows_for(tile)
            np.testing.assert_array_equal(view, rows)
            assert view.base is not None  # a view into the stream, not a copy

    def test_stable_order_within_tile(self):
        # Ties on the tile column must preserve input pair order.
        tiles = np.array([2, 2, 0, 2, 0], dtype=np.int64)
        values = np.array([10, 11, 12, 13, 14], dtype=np.int64)
        stream = TileStream.from_pairs(tiles, values, 3)
        np.testing.assert_array_equal(stream.rows_for(0), [12, 14])
        np.testing.assert_array_equal(stream.rows_for(1), [])
        np.testing.assert_array_equal(stream.rows_for(2), [10, 11, 13])

    def test_with_values_keeps_segmentation(self):
        stream = TileStream.from_pairs(
            np.array([0, 1, 1], dtype=np.int64),
            np.array([5, 6, 7], dtype=np.int64),
            2,
        )
        other = stream.with_values(np.array([1.5, 2.5, 3.5]))
        assert other.offsets is stream.offsets
        np.testing.assert_array_equal(other.rows_for(1), [2.5, 3.5])
        with pytest.raises(ValueError):
            stream.with_values(np.zeros(5))

    @pytest.mark.parametrize("shape,num_tiles,num_pairs", WORKLOADS)
    @pytest.mark.parametrize("grow", [-3, 0, 4])
    def test_resized_truncates_or_pads(self, shape, num_tiles, num_pairs, grow):
        rng = np.random.default_rng(hash((shape, num_tiles, num_pairs)) % 2**32)
        stream = TileStream.from_pairs(*_random_pairs(rng, num_tiles, num_pairs, shape),
                                       num_tiles)
        size = max(num_tiles + grow, 0)
        resized = stream.resized(size)
        assert resized.num_tiles == size
        for tile in range(size):
            want = stream.rows_for(tile) if tile < num_tiles else []
            np.testing.assert_array_equal(resized.rows_for(tile), want)

    @pytest.mark.parametrize("shape,num_tiles,num_pairs", WORKLOADS)
    def test_compress_keeps_each_entry_in_its_tile(self, shape, num_tiles, num_pairs):
        rng = np.random.default_rng(hash((shape, num_tiles, num_pairs)) % 2**32)
        stream = TileStream.from_pairs(*_random_pairs(rng, num_tiles, num_pairs, shape),
                                       num_tiles)
        mask = rng.random(num_pairs) < 0.6
        kept = stream.compress(mask)
        for tile in range(num_tiles):
            lo, hi = stream.offsets[tile], stream.offsets[tile + 1]
            np.testing.assert_array_equal(kept.rows_for(tile), stream.values[lo:hi][mask[lo:hi]])

    def test_offset_validation(self):
        with pytest.raises(ValueError):
            TileStream(
                num_tiles=2,
                values=np.zeros(3, dtype=np.int64),
                offsets=np.array([0, 1]),
            )
        with pytest.raises(ValueError):
            TileStream(
                num_tiles=2,
                values=np.zeros(3, dtype=np.int64),
                offsets=np.array([0, 2, 1]),
            )


# ---------------------------------------------------------------------------
# Segmented algorithms
# ---------------------------------------------------------------------------


class TestSegmentedHelpers:
    @pytest.mark.parametrize("shape,num_tiles,num_pairs", WORKLOADS)
    @pytest.mark.parametrize(
        "ufunc,initial", [(np.add, 0), (np.maximum, -1), (np.minimum, 10**9)]
    )
    def test_segment_reduce(self, shape, num_tiles, num_pairs, ufunc, initial):
        rng = np.random.default_rng(hash((shape, num_tiles, ufunc.__name__)) % 2**32)
        tiles, values = _random_pairs(rng, num_tiles, num_pairs, shape)
        stream = TileStream.from_pairs(tiles, values, num_tiles)
        data = rng.integers(0, 1000, size=num_pairs).astype(np.int64)
        np.testing.assert_array_equal(
            stream.segment_reduce(data, ufunc=ufunc, initial=initial),
            _ref_reduce(stream, data, ufunc, initial),
        )

    def test_segment_reduce_alignment_check(self):
        stream = TileStream.empty(3)
        with pytest.raises(ValueError):
            stream.segment_reduce(np.ones(2))

    @pytest.mark.parametrize("shape,num_tiles,num_pairs", WORKLOADS)
    def test_segment_intersect(self, shape, num_tiles, num_pairs):
        rng = np.random.default_rng(hash(("isect", shape, num_tiles)) % 2**32)
        # Build two streams with unique-per-tile keys by sampling without
        # replacement from a shared key universe.
        def build(seed_shift):
            tiles, _ = _random_pairs(rng, num_tiles, num_pairs, shape)
            order = np.argsort(tiles, kind="stable")
            tiles = tiles[order]
            keys = np.empty(num_pairs, dtype=np.int64)
            for tile in range(num_tiles):
                seg = np.flatnonzero(tiles == tile)
                universe = max(2 * num_pairs, 50)
                keys[seg] = rng.choice(universe, size=seg.shape[0], replace=False)
            stream = TileStream.from_pairs(tiles, np.arange(num_pairs), num_tiles)
            return stream, keys

        stream_a, keys_a = build(0)
        stream_b, keys_b = build(1)
        result = stream_a.segment_intersect(keys_a, stream_b, keys_b)
        ref = _ref_intersect(stream_a, keys_a, stream_b, keys_b)

        assert isinstance(result, SegmentIntersection)
        total = sum(v.shape[0] for v in ref.values())
        assert result.num_shared == total
        np.testing.assert_array_equal(
            result.counts(), [ref[t].shape[0] for t in range(num_tiles)]
        )
        for tile in range(num_tiles):
            seg = slice(result.offsets[tile], result.offsets[tile + 1])
            np.testing.assert_array_equal(result.keys[seg], ref[tile])
        # Index columns must point back at the matching keys in each stream.
        np.testing.assert_array_equal(keys_a[result.self_indices], result.keys)
        np.testing.assert_array_equal(keys_b[result.other_indices], result.keys)
        # ... and at entries of the right tile.
        np.testing.assert_array_equal(
            stream_a.tile_of()[result.self_indices],
            np.repeat(np.arange(num_tiles), result.counts()),
        )

    def test_segment_intersect_validation(self):
        a = TileStream.empty(3)
        b = TileStream.empty(4)
        with pytest.raises(ValueError):
            a.segment_intersect(np.empty(0, dtype=np.int64), b, np.empty(0, dtype=np.int64))
        c = TileStream.empty(3)
        with pytest.raises(ValueError):
            a.segment_intersect(np.ones(1, dtype=np.int64), c, np.empty(0, dtype=np.int64))
