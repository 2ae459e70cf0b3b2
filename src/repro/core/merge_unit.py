"""The MSU+ merge with lazy deletion, as a vectorized two-stream merge.

The MSU+ is the second half of Neo's Sorting Core (paper section 5.3).  It
merges two sorted streams one element per cycle and, *during the same merge
pass*, (a) filters out entries whose valid bit was cleared by the previous
frame's rasterization (lazy deletion) and (b) admits newly incoming entries
(insertion) — avoiding the entry-shifting cost an eager delete would incur.

:func:`merge_sorted` computes what the unit emits, not how it gets there:
a two-input merge with invalid-entry filters on both inputs (Figure 12's
"Invalid Bit Filter" blocks).  The per-tile pin :mod:`repro.core.reference`
merges each tile with it; the stream sorter merges every tile at once.  The
unit's cycle cost is modelled only in
:func:`repro.hw.accelerator.sort_cycles_per_entry`.
"""

from __future__ import annotations

import numpy as np


def merge_sorted(
    keys_a: np.ndarray,
    values_a: np.ndarray,
    keys_b: np.ndarray,
    values_b: np.ndarray,
    valid_a: np.ndarray | None = None,
    valid_b: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two sorted (key, value) streams, dropping invalid entries.

    Parameters
    ----------
    keys_a, keys_b:
        Key arrays (depths).  ``keys_b`` must be non-decreasing; ``keys_a``
        may be only partially sorted, and is merged as a stream.
    values_a, values_b:
        Payloads (Gaussian IDs) aligned with the keys.
    valid_a, valid_b:
        Optional boolean masks; ``False`` entries are filtered out while the
        streams drain, mirroring the hardware's invalid-bit filters.

    Returns
    -------
    ``(keys, values)`` of the merged, filtered output.
    """
    keys_a = np.asarray(keys_a, dtype=np.float64)
    keys_b = np.asarray(keys_b, dtype=np.float64)
    values_a = np.asarray(values_a)
    values_b = np.asarray(values_b)
    if keys_a.shape != values_a.shape or keys_b.shape != values_b.shape:
        raise ValueError("keys and values must align")

    na, nb = keys_a.shape[0], keys_b.shape[0]
    if valid_a is not None:
        valid_a = np.asarray(valid_a, dtype=bool)
        if valid_a.shape[0] != na:
            raise ValueError("valid_a must align with keys_a")
        keys_a, values_a = keys_a[valid_a], values_a[valid_a]
    if valid_b is not None:
        valid_b = np.asarray(valid_b, dtype=bool)
        if valid_b.shape[0] != nb:
            raise ValueError("valid_b must align with keys_b")
        keys_b, values_b = keys_b[valid_b], values_b[valid_b]

    # Stable two-way merge (a-side wins ties), vectorized with searchsorted:
    # position of each b element among a's elements, then scatter.  The
    # streaming MSU+ emits b_j just before the first a element greater than
    # it, so the search runs against a's running maximum: identical to a
    # plain search when a is sorted, and still the streamed order when a is
    # only chunk-sorted (single-pass Dynamic Partial Sorting leaves it so).
    out_n = keys_a.shape[0] + keys_b.shape[0]
    out_keys = np.empty(out_n, dtype=np.float64)
    out_vals = np.empty(out_n, dtype=values_a.dtype if values_a.size else values_b.dtype)
    insert_at = np.searchsorted(np.maximum.accumulate(keys_a), keys_b, side="right")
    b_positions = insert_at + np.arange(keys_b.shape[0])
    mask = np.ones(out_n, dtype=bool)
    mask[b_positions] = False
    out_keys[mask] = keys_a
    out_vals[mask] = values_a
    out_keys[b_positions] = keys_b
    out_vals[b_positions] = values_b
    return out_keys, out_vals

