"""Dynamic Partial Sorting (paper Algorithm 1, section 4.3).

The reordering step of reuse-and-update sorting: instead of globally
re-sorting a tile's Gaussian table, the table is processed in chunks that fit
in on-chip memory (256 entries), each chunk is sorted independently, and the
chunk *boundaries alternate by half a chunk between frames* so entries can
migrate across chunk edges over consecutive frames (Figure 9b).

Each chunk is read from DRAM once and written back once — a single off-chip
pass — which is the source of Neo's bandwidth savings over multi-pass global
sorts.  :func:`dynamic_partial_sort` sorts one table; its segmented form,
:func:`segmented_partial_sort`, runs the same passes over every table of a
flat tile stream at once.

Note on the pseudocode: Algorithm 1 advances ``range.start`` by ``C`` after
every chunk, which on even iterations (first chunk of size ``C/2``) would
leave the half-chunk ``[C/2, C)`` unsorted.  We implement the clearly
intended semantics illustrated by Figure 9(b): on even iterations the chunk
grid is offset by ``C/2``, producing chunks ``[0, C/2), [C/2, 3C/2), ...`` so
every element is covered and boundaries interleave between frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitonic import BitonicStats, bsu_sort_chunk
from .gaussian_table import TABLE_ENTRY_BYTES
from .merge_unit import MergeStats, merge_runs

#: On-chip chunk capacity of a Sorting Core (paper section 4.3).
DEFAULT_CHUNK_SIZE = 256


@dataclass
class PartialSortStats:
    """Work and traffic counters for one Dynamic Partial Sorting pass.

    Attributes
    ----------
    chunks:
        Chunks processed (each = one DRAM read + one write of the chunk).
    entries_read / entries_written:
        Table entries moved across the off-chip interface.
    bitonic:
        BSU activity (only populated with ``use_hardware_units=True``).
    merge:
        MSU+ activity (only populated with ``use_hardware_units=True``).
    """

    chunks: int = 0
    entries_read: int = 0
    entries_written: int = 0
    bitonic: BitonicStats | None = None
    merge: MergeStats | None = None

    @property
    def bytes_read(self) -> int:
        """Off-chip bytes fetched."""
        return self.entries_read * TABLE_ENTRY_BYTES

    @property
    def bytes_written(self) -> int:
        """Off-chip bytes written back."""
        return self.entries_written * TABLE_ENTRY_BYTES


def chunk_ranges(length: int, chunk_size: int, iteration: int) -> list[tuple[int, int]]:
    """Chunk boundaries for a table of ``length`` entries at ``iteration``.

    Odd iterations use the aligned grid ``[0, C), [C, 2C), ...``; even
    iterations offset by half a chunk: ``[0, C/2), [C/2, 3C/2), ...``
    (interleaved boundaries, Figure 9b).

    >>> chunk_ranges(10, 4, iteration=1)
    [(0, 4), (4, 8), (8, 10)]
    >>> chunk_ranges(10, 4, iteration=2)
    [(0, 2), (2, 6), (6, 10)]
    """
    if chunk_size < 2:
        raise ValueError("chunk_size must be >= 2")
    if length <= 0:
        return []
    ranges: list[tuple[int, int]] = []
    if iteration % 2 == 1:
        start = 0
    else:
        half = chunk_size // 2
        first_end = min(half, length)
        if first_end > 0:
            ranges.append((0, first_end))
        start = first_end
    while start < length:
        end = min(start + chunk_size, length)
        ranges.append((start, end))
        start = end
    return ranges


def chunk_ids(positions: np.ndarray, chunk_size: int, iteration: int) -> np.ndarray:
    """Chunk index of each table position under :func:`chunk_ranges`' grid.

    The vectorized form of :func:`chunk_ranges`: ``positions`` are offsets
    into a table, so for a flat stream of tables it labels every entry with
    its chunk inside its own table.

    >>> chunk_ids(np.arange(10), 4, iteration=2).tolist()
    [0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
    """
    if chunk_size < 2:
        raise ValueError("chunk_size must be >= 2")
    if iteration % 2 == 1:
        return positions // chunk_size
    half = chunk_size // 2
    return np.where(positions < half, 0, (positions - half) // chunk_size + 1)


def _sort_chunk_in_place(
    keys: np.ndarray,
    values: np.ndarray,
    start: int,
    end: int,
    use_hardware_units: bool,
    stats: PartialSortStats,
) -> None:
    """Sort ``[start, end)`` of the table inside on-chip memory."""
    if use_hardware_units:
        if stats.bitonic is None:
            stats.bitonic = BitonicStats()
        if stats.merge is None:
            stats.merge = MergeStats()
        sub_keys, sub_vals, runs = bsu_sort_chunk(
            keys[start:end], values[start:end], stats=stats.bitonic
        )
        merged_keys, merged_vals = merge_runs(sub_keys, sub_vals, runs, stats=stats.merge)
        keys[start:end] = merged_keys
        values[start:end] = merged_vals
    else:
        order = np.argsort(keys[start:end], kind="stable")
        keys[start:end] = keys[start:end][order]
        values[start:end] = values[start:end][order]


def dynamic_partial_sort(
    keys: np.ndarray,
    values: np.ndarray,
    iteration: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    passes: int = 1,
    use_hardware_units: bool = False,
    stats: PartialSortStats | None = None,
) -> tuple[np.ndarray, np.ndarray, PartialSortStats]:
    """Apply Dynamic Partial Sorting to a (keys, values) table.

    Parameters
    ----------
    keys:
        Depth keys from the previous frame's table (possibly one frame
        stale under deferred depth update).
    values:
        Payload (Gaussian IDs) permuted alongside the keys.
    iteration:
        Current frame number; its parity selects the chunk-boundary phase.
    chunk_size:
        On-chip chunk capacity ``C`` (256 in the paper's configuration).
    passes:
        Off-chip sorting passes.  The paper adopts a single pass (accuracy
        loss < 0.1 dB); more passes trade traffic for ordering accuracy
        (each extra pass re-runs the opposite boundary phase).
    use_hardware_units:
        Route each chunk through the BSU + MSU+ functional models instead of
        ``np.sort`` (slower, but counts comparator/merge work exactly).

    Returns
    -------
    ``(sorted_keys, sorted_values, stats)``.  Inputs are not mutated.
    """
    if passes < 1:
        raise ValueError("passes must be >= 1")
    keys = np.asarray(keys, dtype=np.float64).copy()
    values = np.asarray(values).copy()
    if keys.shape != values.shape:
        raise ValueError("keys and values must align")
    if stats is None:
        stats = PartialSortStats()

    for pass_index in range(passes):
        ranges = chunk_ranges(keys.shape[0], chunk_size, iteration + pass_index)
        for start, end in ranges:
            stats.chunks += 1
            stats.entries_read += end - start
            stats.entries_written += end - start
            _sort_chunk_in_place(keys, values, start, end, use_hardware_units, stats)
    return keys, values, stats


def segmented_partial_sort(
    keys: np.ndarray,
    values: np.ndarray,
    offsets: np.ndarray,
    iteration: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    passes: int = 1,
    use_hardware_units: bool = False,
    stats: PartialSortStats | None = None,
) -> tuple[np.ndarray, np.ndarray, PartialSortStats]:
    """:func:`dynamic_partial_sort` of every table of a flat stream at once.

    ``offsets`` delimits the tables (the ``TileStream`` layout); each is
    partially sorted exactly as :func:`dynamic_partial_sort` would sort it
    alone.  A pass is one stable sort on ``(table, chunk, key)``: keys are
    ranked to integers once, so the pass sorts the integer
    ``chunk_segment * span + rank``.  With ``use_hardware_units`` every chunk
    still goes through the BSU/MSU+ models one by one, since their
    comparator counts are the point.
    """
    if passes < 1:
        raise ValueError("passes must be >= 1")
    keys = np.asarray(keys, dtype=np.float64).copy()
    values = np.asarray(values).copy()
    if keys.shape != values.shape:
        raise ValueError("keys and values must align")
    if stats is None:
        stats = PartialSortStats()
    n = keys.shape[0]
    positions = np.arange(n, dtype=np.int64) - np.repeat(offsets[:-1], np.diff(offsets))
    _, rank = np.unique(keys, return_inverse=True)
    span = np.int64(n)

    for pass_index in range(passes):
        chunk = chunk_ids(positions, chunk_size, iteration + pass_index)
        starts = (positions == 0) | (chunk != np.roll(chunk, 1))
        stats.chunks += int(np.count_nonzero(starts))
        stats.entries_read += n
        stats.entries_written += n
        if use_hardware_units:
            bounds = np.append(np.flatnonzero(starts), n).tolist()
            for start, end in zip(bounds[:-1], bounds[1:]):
                _sort_chunk_in_place(keys, values, start, end, True, stats)
        else:
            order = np.argsort(np.cumsum(starts) * span + rank, kind="stable")
            keys = keys[order]
            values = values[order]
            rank = rank[order]
    return keys, values, stats


def full_sort(
    keys: np.ndarray,
    values: np.ndarray,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    stats: PartialSortStats | None = None,
) -> tuple[np.ndarray, np.ndarray, PartialSortStats]:
    """Conventional from-scratch sort with merge-sort traffic accounting.

    Models the baseline Sorting Core flow (section 5.3 "Conventional
    sorting"): chunk-sort everything once, then a global merge that streams
    the whole table through DRAM ``ceil(log2(num_chunks))`` more times.
    """
    keys = np.asarray(keys, dtype=np.float64).copy()
    values = np.asarray(values).copy()
    if stats is None:
        stats = PartialSortStats()
    n = keys.shape[0]
    if n == 0:
        return keys, values, stats

    num_chunks = -(-n // chunk_size)
    # Pass 1: chunk sorting (read + write each entry once).
    stats.chunks += num_chunks
    stats.entries_read += n
    stats.entries_written += n
    # Global merge passes: each level streams the full table again.
    merge_levels = max(int(np.ceil(np.log2(num_chunks))), 0)
    stats.entries_read += n * merge_levels
    stats.entries_written += n * merge_levels

    order = np.argsort(keys, kind="stable")
    return keys[order], values[order], stats


def sortedness(keys: np.ndarray) -> float:
    """Fraction of adjacent pairs in non-decreasing order (1.0 = sorted)."""
    if keys.shape[0] < 2:
        return 1.0
    return float(np.count_nonzero(np.diff(keys) >= 0)) / (keys.shape[0] - 1)


def max_displacement(keys: np.ndarray) -> int:
    """Largest distance any element sits from its fully-sorted position.

    The convergence metric of Figure 9: interleaved boundaries reduce the
    maximum displacement by up to ``chunk_size/2`` per iteration.
    """
    n = keys.shape[0]
    if n < 2:
        return 0
    target = np.argsort(np.argsort(keys, kind="stable"), kind="stable")
    return int(np.abs(target - np.arange(n)).max())
