"""Neo's core contribution: reuse-and-update sorting and its hardware units."""

from .bitonic import (
    BSU_WIDTH,
    PAD_KEY,
    BitonicStats,
    bitonic_sort_16,
    bsu_sort_chunk,
    network_stages,
)
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
from .merge_unit import MergeStats, merge_runs, merge_sorted
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
    "BSU_WIDTH",
    "BackgroundSortStrategy",
    "BitonicStats",
    "DEFAULT_CHUNK_SIZE",
    "FrameSortStats",
    "FullResortStrategy",
    "GaussianTable",
    "HierarchicalSortStrategy",
    "MergeStats",
    "NeoSortStrategy",
    "PAD_KEY",
    "PartialSortStats",
    "PeriodicSortStrategy",
    "ReuseUpdateSorter",
    "SortTraffic",
    "TABLE_ENTRY_BYTES",
    "TableStream",
    "bitonic_sort_16",
    "bsu_sort_chunk",
    "chunk_ids",
    "chunk_ranges",
    "dynamic_partial_sort",
    "full_sort",
    "make_strategy",
    "max_displacement",
    "merge_runs",
    "merge_sorted",
    "network_stages",
    "segmented_partial_sort",
    "sortedness",
]
