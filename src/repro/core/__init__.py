"""Neo's core contribution: reuse-and-update sorting and the strategies it is compared with.

The Sorting Core's hardware (BSU and MSU+) is costed in :mod:`repro.hw.accelerator`.
"""

from .dynamic_partial_sort import (
    DEFAULT_CHUNK_SIZE,
    PartialSortStats,
    chunk_ids,
    chunk_ranges,
    dynamic_partial_sort,
    full_sort,
    max_displacement,
    segmented_partial_sort,
    sortedness,
)
from .gaussian_table import TABLE_ENTRY_BYTES, GaussianTable
from .merge_unit import merge_sorted
from .reuse_update import FrameSortStats, ReuseUpdateSorter, SortTraffic, TableStream
from .strategies import (
    BackgroundSortStrategy,
    FullResortStrategy,
    HierarchicalSortStrategy,
    NeoSortStrategy,
    PeriodicSortStrategy,
    make_strategy,
)

__all__ = [
    "BackgroundSortStrategy",
    "DEFAULT_CHUNK_SIZE",
    "FrameSortStats",
    "FullResortStrategy",
    "GaussianTable",
    "HierarchicalSortStrategy",
    "NeoSortStrategy",
    "PartialSortStats",
    "PeriodicSortStrategy",
    "ReuseUpdateSorter",
    "SortTraffic",
    "TABLE_ENTRY_BYTES",
    "TableStream",
    "chunk_ids",
    "chunk_ranges",
    "dynamic_partial_sort",
    "full_sort",
    "make_strategy",
    "max_displacement",
    "merge_sorted",
    "segmented_partial_sort",
    "sortedness",
]
