"""Discrete-event model of Neo's Sorting Engine (paper section 5.3, Fig. 12).

Sixteen Sorting Cores process per-tile Gaussian tables chunk by chunk.  Each
core's input and output buffers are double-buffered, so the DRAM load of
chunk *k+1* overlaps the BSU/MSU+ compute of chunk *k* and the write-back of
chunk *k-1*.  All cores share one DRAM port, which serializes transfers.

This simulator schedules every chunk's load -> compute -> store explicitly
and reports cycle counts and utilization.  It is the detailed counterpart
of the analytic per-entry constant used by
:class:`~repro.hw.accelerator.NeoModel` (``_SORT_CYCLES_PER_ENTRY``); the
tests check the two agree in the bandwidth-bound regime.
"""

from __future__ import annotations

import heapq

from dataclasses import dataclass, field

import numpy as np

from ..core.bitonic import network_stages
from .config import DramConfig, NeoConfig
from ..core.gaussian_table import TABLE_ENTRY_BYTES


@dataclass(frozen=True)
class ChunkJob:
    """One chunk of one tile's table to be reordered.

    Attributes
    ----------
    tile:
        Owning tile (for reporting only).
    entries:
        Entries in the chunk (<= the core's chunk capacity).
    """

    tile: int
    entries: int


@dataclass
class CoreTrace:
    """Per-core accounting."""

    busy_cycles: int = 0
    chunks: int = 0
    finish_cycle: int = 0


@dataclass
class SortingEngineReport:
    """Outcome of simulating one frame's chunk stream.

    Attributes
    ----------
    total_cycles:
        Cycle at which the last write-back completes.
    compute_cycles:
        Summed BSU+MSU+ busy cycles across cores.
    dram_busy_cycles:
        Cycles the shared DRAM port spent transferring.
    chunks:
        Chunks processed.
    entries:
        Table entries processed.
    cores:
        Per-core traces.
    """

    total_cycles: int = 0
    compute_cycles: int = 0
    dram_busy_cycles: int = 0
    chunks: int = 0
    entries: int = 0
    cores: list[CoreTrace] = field(default_factory=list)

    @property
    def dram_utilization(self) -> float:
        """Fraction of the frame the DRAM port was busy."""
        return self.dram_busy_cycles / self.total_cycles if self.total_cycles else 0.0

    @property
    def core_utilization(self) -> float:
        """Mean fraction of the frame the Sorting Cores computed."""
        if not self.cores or not self.total_cycles:
            return 0.0
        return sum(c.busy_cycles for c in self.cores) / (
            len(self.cores) * self.total_cycles
        )

    @property
    def cycles_per_entry(self) -> float:
        """Effective end-to-end cycles per table entry."""
        return self.total_cycles / self.entries if self.entries else 0.0


def chunk_compute_cycles(entries: int, bsu_width: int = 16) -> int:
    """BSU + MSU+ cycles to sort one chunk on-chip.

    The BSU sorts ``ceil(entries / width)`` sub-chunks at one network stage
    per cycle; the MSU+ then tree-merges the sorted runs, retiring one
    element per cycle per merge level (``ceil(log2(runs))`` levels).
    """
    if entries <= 0:
        return 0
    runs = -(-entries // bsu_width)
    bsu = runs * network_stages(bsu_width)
    merge_levels = max((runs - 1).bit_length(), 0)
    return bsu + merge_levels * entries


def chunk_compute_cycles_array(entries: np.ndarray, bsu_width: int = 16) -> np.ndarray:
    """Vectorized :func:`chunk_compute_cycles` over an array of chunk sizes.

    ``bit_length`` of a positive integer is the binary exponent ``np.frexp``
    returns, so the merge-level count batches without a Python loop.
    """
    entries = np.asarray(entries, dtype=np.int64)
    runs = -(-entries // bsu_width)
    bsu = runs * network_stages(bsu_width)
    merge_levels = np.zeros(entries.shape[0], dtype=np.int64)
    deep = runs > 1
    if np.any(deep):
        merge_levels[deep] = np.frexp((runs[deep] - 1).astype(np.float64))[1]
    return np.where(entries > 0, bsu + merge_levels * entries, 0)


def chunk_stream_from_occupancy(
    occupancy, chunk_size: int = 256
) -> tuple[np.ndarray, np.ndarray]:
    """Flat (tile, entries) chunk stream for one frame's per-tile table sizes.

    The SoA counterpart of :func:`jobs_from_occupancy`: same chunks in the
    same order (ascending tile, full chunks first, remainder last), as two
    aligned arrays instead of a list of :class:`ChunkJob` objects.
    """
    occ = np.asarray(occupancy, dtype=np.int64)
    chunks_per = np.zeros(occ.shape[0], dtype=np.int64)
    pos = occ > 0
    chunks_per[pos] = -(-occ[pos] // chunk_size)
    tiles = np.repeat(np.arange(occ.shape[0], dtype=np.int64), chunks_per)
    entries = np.full(tiles.shape[0], chunk_size, dtype=np.int64)
    if np.any(pos):
        last = np.cumsum(chunks_per[pos]) - 1
        entries[last] = occ[pos] - (chunks_per[pos] - 1) * chunk_size
    return tiles, entries


def jobs_from_occupancy(occupancy, chunk_size: int = 256) -> list[ChunkJob]:
    """Split per-tile table sizes into the chunk jobs one frame issues."""
    tiles, entries = chunk_stream_from_occupancy(occupancy, chunk_size)
    return [
        ChunkJob(tile=tile, entries=size)
        for tile, size in zip(tiles.tolist(), entries.tolist())
    ]


@dataclass
class SortingEngineSim:
    """Cycle-level simulator of the Sorting Engine.

    Parameters
    ----------
    config:
        Hardware configuration (core count, BSU width, chunk size).
    dram:
        Shared memory system; transfer time is charged at the streaming
        efficiency of the configured bandwidth.
    frequency_ghz:
        Core clock; converts DRAM bandwidth to bytes/cycle.
    """

    config: NeoConfig = field(default_factory=NeoConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    frequency_ghz: float = 1.0

    def _transfer_cycles(self, num_bytes: int) -> int:
        bytes_per_cycle = (
            self.dram.bandwidth_gbps * self.dram.efficiency / self.frequency_ghz
        )
        return max(int(round(num_bytes / bytes_per_cycle)), 1)

    def _transfer_cycles_array(self, num_bytes: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_transfer_cycles` (``round`` is half-to-even)."""
        bytes_per_cycle = (
            self.dram.bandwidth_gbps * self.dram.efficiency / self.frequency_ghz
        )
        return np.maximum(np.rint(num_bytes / bytes_per_cycle), 1.0).astype(np.int64)

    def simulate(self, jobs: list[ChunkJob]) -> SortingEngineReport:
        """Run one frame's chunk stream through the engine.

        Jobs are dispatched to the least-loaded core.  The shared DRAM port
        interleaves chunk loads with write-backs of completed chunks: a
        store enters a ready queue when its compute finishes and is issued
        whenever the port would otherwise sit idle ahead of the next load
        (double buffering decouples transfers from compute).
        """
        entries = np.fromiter(
            (job.entries for job in jobs), dtype=np.int64, count=len(jobs)
        )
        return self._simulate_entries(entries)

    def _simulate_entries(self, entries: np.ndarray) -> SortingEngineReport:
        """Event loop over a flat chunk-size array.

        Per-chunk transfer and compute cycles are batched up front
        (:meth:`_transfer_cycles_array`, :func:`chunk_compute_cycles_array`);
        the data-dependent load/compute/store interleaving stays an explicit
        integer event loop, so the schedule — and with it every cycle count —
        is identical to the frozen per-job loop preserved in
        :func:`repro.hw.reference.scalar_sorting_engine_simulate`.
        """
        report = SortingEngineReport(
            cores=[CoreTrace() for _ in range(self.config.sorting_cores)]
        )
        if entries.shape[0] == 0:
            return report

        transfer = self._transfer_cycles_array(entries * TABLE_ENTRY_BYTES).tolist()
        compute_cycles = chunk_compute_cycles_array(entries, self.config.bsu_width).tolist()
        entry_list = entries.tolist()

        port_free = 0  # next cycle the shared DRAM port is available
        compute_free = [0] * self.config.sorting_cores
        pending_stores: list[tuple[int, int, int]] = []  # (ready, cycles, core)

        def issue_store(ready: int, cycles: int, core: int) -> None:
            nonlocal port_free
            start = max(port_free, ready)
            port_free = start + cycles
            report.dram_busy_cycles += cycles
            report.cores[core].finish_cycle = port_free
            report.total_cycles = max(report.total_cycles, port_free)

        for load_cycles, compute, num_entries in zip(
            transfer, compute_cycles, entry_list
        ):
            core_idx = min(range(len(compute_free)), key=compute_free.__getitem__)
            trace = report.cores[core_idx]
            store_cycles = load_cycles

            # Drain any write-backs already ready before this load.
            while pending_stores and pending_stores[0][0] <= port_free:
                ready, cycles, core = heapq.heappop(pending_stores)
                issue_store(ready, cycles, core)

            load_end = port_free + load_cycles
            port_free = load_end
            report.dram_busy_cycles += load_cycles

            compute_start = max(load_end, compute_free[core_idx])
            compute_end = compute_start + compute
            compute_free[core_idx] = compute_end
            heapq.heappush(pending_stores, (compute_end, store_cycles, core_idx))

            trace.busy_cycles += compute
            trace.chunks += 1
            report.compute_cycles += compute
            report.chunks += 1
            report.entries += num_entries
            report.total_cycles = max(report.total_cycles, compute_end)

        while pending_stores:
            ready, cycles, core = heapq.heappop(pending_stores)
            issue_store(ready, cycles, core)
        return report

    def simulate_frame(self, occupancy, chunk_size: int | None = None) -> SortingEngineReport:
        """Convenience: simulate a frame given per-tile table sizes."""
        size = chunk_size if chunk_size is not None else self.config.chunk_size
        _, entries = chunk_stream_from_occupancy(occupancy, size)
        return self._simulate_entries(entries)
