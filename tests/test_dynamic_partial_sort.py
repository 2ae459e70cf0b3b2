"""Unit tests for Dynamic Partial Sorting (paper Algorithm 1)."""

import numpy as np
import pytest

from repro.core.dynamic_partial_sort import (
    chunk_ranges,
    dynamic_partial_sort,
    full_sort,
    max_displacement,
    sortedness,
)
from repro.core.gaussian_table import TABLE_ENTRY_BYTES


class TestChunkRanges:
    def test_odd_iteration_aligned(self):
        assert chunk_ranges(10, 4, iteration=1) == [(0, 4), (4, 8), (8, 10)]

    def test_even_iteration_offset_by_half(self):
        assert chunk_ranges(10, 4, iteration=2) == [(0, 2), (2, 6), (6, 10)]

    def test_covers_everything_without_gaps(self):
        for length in (1, 5, 16, 100, 257):
            for iteration in (1, 2, 3, 4):
                ranges = chunk_ranges(length, 16, iteration)
                covered = []
                for start, end in ranges:
                    covered.extend(range(start, end))
                assert covered == list(range(length))

    def test_empty_table(self):
        assert chunk_ranges(0, 16, 1) == []

    def test_rejects_tiny_chunks(self):
        with pytest.raises(ValueError):
            chunk_ranges(10, 1, 1)

    def test_boundaries_interleave_between_parities(self):
        odd = {e for _, e in chunk_ranges(64, 16, 1)}
        even = {e for _, e in chunk_ranges(64, 16, 2)}
        # Interior boundaries are disjoint (shifted by half a chunk).
        assert not (odd & even - {64})


class TestDynamicPartialSort:
    def test_inputs_not_mutated(self, rng):
        keys = rng.normal(size=50)
        values = np.arange(50)
        snapshot = keys.copy()
        dynamic_partial_sort(keys, values, iteration=1, chunk_size=16)
        assert np.array_equal(keys, snapshot)

    def test_chunks_locally_sorted(self, rng):
        keys = rng.normal(size=100)
        out_keys, out_vals, _ = dynamic_partial_sort(
            keys, np.arange(100), iteration=1, chunk_size=16
        )
        for start, end in chunk_ranges(100, 16, 1):
            assert np.array_equal(out_keys[start:end], np.sort(out_keys[start:end]))

    def test_values_track_keys(self, rng):
        keys = rng.normal(size=64)
        out_keys, out_vals, _ = dynamic_partial_sort(
            keys, np.arange(64), iteration=3, chunk_size=16
        )
        assert np.array_equal(keys[out_vals], out_keys)

    def test_already_sorted_is_fixed_point(self):
        keys = np.arange(100, dtype=np.float64)
        out_keys, _, _ = dynamic_partial_sort(keys, np.arange(100), iteration=2, chunk_size=16)
        assert np.array_equal(out_keys, keys)

    def test_traffic_single_pass(self, rng):
        keys = rng.normal(size=100)
        _, _, stats = dynamic_partial_sort(keys, np.arange(100), iteration=1, chunk_size=16)
        assert stats.entries_read == 100
        assert stats.entries_written == 100
        assert stats.bytes_read == 100 * TABLE_ENTRY_BYTES

    def test_multi_pass_improves_order(self, rng):
        # Locally-perturbed table: extra passes strictly reduce the largest
        # remaining displacement (the paper's accuracy/traffic trade-off).
        keys = np.arange(512, dtype=np.float64) + rng.uniform(-24, 24, size=512)
        one, _, _ = dynamic_partial_sort(keys, np.arange(512), iteration=1, chunk_size=32)
        two, _, s2 = dynamic_partial_sort(keys, np.arange(512), iteration=1, chunk_size=32, passes=4)
        assert max_displacement(two) <= max_displacement(one)
        assert s2.entries_read == 4 * 512

    def test_rejects_bad_args(self, rng):
        with pytest.raises(ValueError):
            dynamic_partial_sort(np.zeros(4), np.zeros(3), iteration=1)
        with pytest.raises(ValueError):
            dynamic_partial_sort(np.zeros(4), np.zeros(4), iteration=1, passes=0)

    def test_locally_perturbed_converges_over_frames(self, rng):
        # Elements within half a chunk of home: a few alternating-boundary
        # passes must fully sort (the Fig. 9(b) behaviour).
        n, chunk = 256, 32
        keys = np.arange(n, dtype=np.float64)
        keys += rng.uniform(-chunk / 2, chunk / 2, size=n)
        values = np.arange(n)
        for iteration in range(1, 6):
            keys, values, _ = dynamic_partial_sort(keys, values, iteration=iteration, chunk_size=chunk)
        assert sortedness(keys) == 1.0


class TestFullSort:
    def test_exact_and_traffic(self, rng):
        keys = rng.normal(size=1000)
        out_keys, out_vals, stats = full_sort(keys, np.arange(1000), chunk_size=256)
        assert np.array_equal(out_keys, np.sort(keys))
        assert np.array_equal(keys[out_vals], out_keys)
        # 4 chunks -> 2 merge levels -> 3x table stream each direction.
        assert stats.entries_read == 1000 * 3
        assert stats.entries_written == 1000 * 3

    def test_single_chunk_no_merge(self, rng):
        keys = rng.normal(size=100)
        _, _, stats = full_sort(keys, np.arange(100), chunk_size=256)
        assert stats.entries_read == 100

    def test_empty(self):
        keys, vals, stats = full_sort(np.empty(0), np.empty(0, dtype=np.int64))
        assert keys.shape == (0,)
        assert stats.entries_read == 0


class TestOrderMetrics:
    def test_sortedness(self):
        assert sortedness(np.array([1.0, 2.0, 3.0])) == 1.0
        assert sortedness(np.array([2.0, 1.0])) == 0.0
        assert sortedness(np.array([1.0])) == 1.0

    def test_max_displacement(self):
        assert max_displacement(np.array([1.0, 2.0, 3.0])) == 0
        assert max_displacement(np.array([3.0, 1.0, 2.0])) == 2
        assert max_displacement(np.array([5.0])) == 0
