"""Property-based tests (hypothesis) for the core data structures.

Invariants checked:

* the MSU+ merge of sorted inputs is sorted, complete, and respects filters;
* Dynamic Partial Sorting is a permutation, chunk-locally sorted, and
  converges to a full sort under repeated alternating-boundary passes for
  bounded perturbations;
* chunk boundaries cover [0, n) exactly once at every iteration parity;
* the Gaussian table keeps ids/depths/valid aligned through any sequence of
  operations;
* Kendall-tau distance stays within [0, 1] and is symmetric.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic_partial_sort import (
    chunk_ranges,
    dynamic_partial_sort,
    full_sort,
    sortedness,
)
from repro.core.gaussian_table import GaussianTable
from repro.core.merge_unit import merge_sorted
from repro.pipeline.sorting import kendall_tau_distance

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@given(
    st.lists(finite_floats, min_size=0, max_size=60),
    st.lists(finite_floats, min_size=0, max_size=60),
)
def test_merge_sorted_properties(a, b):
    a = np.sort(np.asarray(a))
    b = np.sort(np.asarray(b))
    keys, vals = merge_sorted(a, np.arange(a.size), b, np.arange(b.size))
    assert keys.shape[0] == a.size + b.size
    assert np.array_equal(keys, np.sort(np.concatenate([a, b])))


@given(
    st.lists(finite_floats, min_size=1, max_size=40),
    st.data(),
)
def test_merge_filter_drops_exactly_invalid(a, data):
    a = np.sort(np.asarray(a))
    valid = np.asarray(data.draw(st.lists(st.booleans(), min_size=a.size, max_size=a.size)))
    keys, vals = merge_sorted(
        a, np.arange(a.size), np.empty(0), np.empty(0, dtype=np.int64), valid_a=valid
    )
    assert keys.shape[0] == int(valid.sum())
    assert np.array_equal(keys, a[valid])


@given(
    st.integers(min_value=0, max_value=600),
    st.integers(min_value=2, max_value=64),
    st.integers(min_value=1, max_value=6),
)
def test_chunk_ranges_partition(length, chunk, iteration):
    ranges = chunk_ranges(length, chunk, iteration)
    covered = []
    for start, end in ranges:
        assert start < end
        covered.extend(range(start, end))
    assert covered == list(range(length))


@given(st.lists(finite_floats, min_size=0, max_size=300), st.integers(1, 5))
@settings(max_examples=30)
def test_partial_sort_is_permutation(keys, iteration):
    keys = np.asarray(keys)
    values = np.arange(keys.shape[0])
    out_keys, out_vals, _ = dynamic_partial_sort(keys, values, iteration=iteration, chunk_size=16)
    assert np.array_equal(np.sort(out_keys), np.sort(keys))
    if keys.shape[0]:
        assert np.array_equal(keys[out_vals], out_keys)


@given(st.data())
@settings(max_examples=20)
def test_partial_sort_converges_for_bounded_perturbation(data):
    n = data.draw(st.integers(min_value=8, max_value=200))
    chunk = 16
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    keys = np.arange(n, dtype=np.float64) + rng.uniform(-chunk / 2, chunk / 2, size=n)
    values = np.arange(n)
    for iteration in range(1, 8):
        keys, values, _ = dynamic_partial_sort(keys, values, iteration=iteration, chunk_size=chunk)
    assert sortedness(keys) == 1.0


@given(st.lists(finite_floats, min_size=0, max_size=400))
@settings(max_examples=30)
def test_full_sort_matches_numpy(keys):
    keys = np.asarray(keys)
    out_keys, _, _ = full_sort(keys, np.arange(keys.shape[0]), chunk_size=32)
    assert np.array_equal(out_keys, np.sort(keys))


@given(st.data())
@settings(max_examples=30)
def test_gaussian_table_invariants(data):
    n = data.draw(st.integers(min_value=0, max_value=40))
    rng_seed = data.draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(rng_seed)
    ids = rng.permutation(1000)[:n]
    depths = np.sort(rng.random(n))
    table = GaussianTable.from_sorted(ids, depths)

    operations = data.draw(
        st.lists(st.sampled_from(["invalidate", "update", "compact"]), max_size=6)
    )
    for op in operations:
        if op == "invalidate" and n:
            table.mark_invalid(rng.choice(ids, size=min(3, n), replace=False))
        elif op == "update" and n:
            subset = rng.choice(ids, size=min(5, n), replace=False)
            table.update_depths(ids=subset, depths=rng.random(subset.size))
        elif op == "compact":
            table.compact()
        # Invariants after every operation:
        assert table.ids.shape == table.depths.shape == table.valid.shape
        assert len(np.unique(table.ids)) == len(table)
        assert table.num_valid <= len(table)


@given(st.integers(min_value=2, max_value=30), st.data())
@settings(max_examples=30)
def test_kendall_tau_bounds_and_symmetry(n, data):
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    a = rng.permutation(n)
    b = rng.permutation(n)
    d_ab = kendall_tau_distance(a, b)
    d_ba = kendall_tau_distance(b, a)
    assert 0.0 <= d_ab <= 1.0
    assert d_ab == d_ba
