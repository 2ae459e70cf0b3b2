"""Unit tests for the Merge Sort Unit+ model."""

import numpy as np
import pytest

from repro.core.merge_unit import MergeStats, merge_runs, merge_sorted


class TestMergeSorted:
    def test_basic_merge(self):
        keys, vals = merge_sorted(
            np.array([1.0, 3.0, 5.0]), np.array([10, 30, 50]),
            np.array([2.0, 4.0]), np.array([20, 40]),
        )
        assert np.array_equal(keys, [1, 2, 3, 4, 5])
        assert np.array_equal(vals, [10, 20, 30, 40, 50])

    def test_empty_sides(self):
        keys, vals = merge_sorted(
            np.array([1.0, 2.0]), np.array([1, 2]), np.empty(0), np.empty(0, dtype=np.int64)
        )
        assert np.array_equal(keys, [1.0, 2.0])
        keys, vals = merge_sorted(
            np.empty(0), np.empty(0, dtype=np.int64), np.array([1.0]), np.array([9])
        )
        assert np.array_equal(vals, [9])

    def test_stable_ties_prefer_a(self):
        keys, vals = merge_sorted(
            np.array([1.0, 2.0]), np.array([100, 200]),
            np.array([2.0]), np.array([999]),
        )
        assert np.array_equal(keys, [1.0, 2.0, 2.0])
        assert np.array_equal(vals, [100, 200, 999])

    def test_chunk_sorted_a_merges_as_a_stream(self):
        # Single-pass Dynamic Partial Sorting leaves a table only
        # chunk-sorted.  A streaming MSU+ emits 4.5 as soon as the a-side
        # head (5) exceeds it, i.e. at position 1 — not where a binary
        # search over the unsorted a-side would put it.
        keys, vals = merge_sorted(
            np.array([1.0, 5.0, 2.0, 3.0, 4.0, 6.0, 7.0]), np.arange(7),
            np.array([4.5]), np.array([99]),
        )
        assert np.array_equal(keys, [1.0, 4.5, 5.0, 2.0, 3.0, 4.0, 6.0, 7.0])
        assert np.array_equal(vals, [0, 99, 1, 2, 3, 4, 5, 6])

    def test_invalid_filter_a(self):
        keys, vals = merge_sorted(
            np.array([1.0, 2.0, 3.0]), np.array([1, 2, 3]),
            np.array([2.5]), np.array([25]),
            valid_a=np.array([True, False, True]),
        )
        assert np.array_equal(keys, [1.0, 2.5, 3.0])
        assert np.array_equal(vals, [1, 25, 3])

    def test_invalid_filter_b(self):
        keys, vals = merge_sorted(
            np.array([1.0]), np.array([1]),
            np.array([0.5, 2.0]), np.array([5, 20]),
            valid_b=np.array([False, True]),
        )
        assert np.array_equal(keys, [1.0, 2.0])

    def test_stats(self):
        stats = MergeStats()
        merge_sorted(
            np.array([1.0, 2.0]), np.array([1, 2]),
            np.array([3.0]), np.array([3]),
            valid_a=np.array([True, False]),
            stats=stats,
        )
        assert stats.merges == 1
        assert stats.elements_in == 3
        assert stats.elements_out == 2
        assert stats.invalid_dropped == 1
        assert stats.cycles == 3

    def test_rejects_misaligned(self):
        with pytest.raises(ValueError):
            merge_sorted(np.zeros(2), np.zeros(3), np.zeros(1), np.zeros(1))
        with pytest.raises(ValueError):
            merge_sorted(
                np.zeros(2), np.zeros(2), np.zeros(1), np.zeros(1),
                valid_a=np.array([True]),
            )

    def test_random_merges_match_numpy(self, rng):
        for _ in range(10):
            a = np.sort(rng.normal(size=rng.integers(0, 30)))
            b = np.sort(rng.normal(size=rng.integers(0, 30)))
            keys, _ = merge_sorted(a, np.arange(a.size), b, np.arange(b.size))
            assert np.array_equal(keys, np.sort(np.concatenate([a, b])))


class TestMergeRuns:
    def test_merges_chunk_runs(self, rng):
        keys = rng.normal(size=70)
        values = np.arange(70)
        runs = [(0, 16), (16, 32), (32, 48), (48, 64), (64, 70)]
        staged = keys.copy()
        for s, e in runs:
            staged[s:e] = np.sort(staged[s:e])
        out_keys, out_vals = merge_runs(staged, values, runs)
        assert np.array_equal(out_keys, np.sort(keys))

    def test_empty(self):
        keys, vals = merge_runs(np.empty(0), np.empty(0, dtype=np.int64), [])
        assert keys.shape == (0,)

    def test_single_run(self):
        keys, vals = merge_runs(np.array([1.0, 2.0]), np.array([1, 2]), [(0, 2)])
        assert np.array_equal(keys, [1.0, 2.0])

    def test_stats_accumulate(self, rng):
        stats = MergeStats()
        keys = np.sort(rng.normal(size=32).reshape(2, 16), axis=1).ravel()
        merge_runs(keys, np.arange(32), [(0, 16), (16, 32)], stats=stats)
        assert stats.merges == 1
        assert stats.elements_in == 32
