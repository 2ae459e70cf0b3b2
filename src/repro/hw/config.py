"""Hardware configuration dataclasses for the three evaluated systems.

Mirrors the paper's evaluation setup (section 6.1, Table 1):

* **Neo** — 7 nm, 1 GHz; Preprocessing Engine (4 projection / color /
  duplication units), Sorting Engine (16 cores, BSU + MSU+, 64 KB I/O
  buffers), Rasterization Engine (4 cores x 4 SCU/ITU, 200 KB buffers),
  64 x 64 px tiles, 8 x 8 px subtiles.
* **GSCore** — the prior-art ASIC, scaled to 16 cores for fairness.
* **Orin AGX** — the edge-GPU baseline (204.8 GB/s, up to 60 W).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Default edge-device DRAM bandwidth used by Figs. 3 and 15 (GB/s).
EDGE_BANDWIDTH_GBPS = 51.2

#: Orin AGX peak DRAM bandwidth (GB/s).
ORIN_BANDWIDTH_GBPS = 204.8


@dataclass(frozen=True)
class DramConfig:
    """Off-chip memory model parameters (LPDDR4-class, Ramulator-informed).

    Parameters
    ----------
    bandwidth_gbps:
        Peak bandwidth in GB/s.
    efficiency:
        Achievable fraction of peak under streaming access (row-hit
        dominated); LPDDR4 streaming efficiency is typically 0.80-0.90.
    """

    bandwidth_gbps: float = EDGE_BANDWIDTH_GBPS
    efficiency: float = 0.85

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0 < self.efficiency <= 1:
            raise ValueError("efficiency must be in (0, 1]")

    def with_bandwidth(self, bandwidth_gbps: float) -> "DramConfig":
        """Copy with a different peak bandwidth (Fig. 4 sweeps)."""
        return replace(self, bandwidth_gbps=bandwidth_gbps)


@dataclass(frozen=True)
class NeoConfig:
    """Neo accelerator configuration (paper Table 1)."""

    frequency_ghz: float = 1.0
    tile_size: int = 64
    projection_units: int = 4
    color_units: int = 4
    duplication_units: int = 4
    sorting_cores: int = 16
    bsu_width: int = 16
    chunk_size: int = 256
    io_buffer_kb: int = 64
    raster_cores: int = 4
    scu_per_core: int = 4
    itu_per_core: int = 4
    raster_buffer_kb: int = 200

    @property
    def total_scus(self) -> int:
        """Subtile Compute Units across all Rasterization Cores."""
        return self.raster_cores * self.scu_per_core

    @property
    def total_itus(self) -> int:
        """Intersection Test Units across all Rasterization Cores."""
        return self.raster_cores * self.itu_per_core


@dataclass(frozen=True)
class GSCoreConfig:
    """GSCore configuration (Lee et al., ASPLOS 2024), scaled per section 6.1.

    GSCore re-sorts every frame with hierarchical (coarse bucket + fine)
    sorting and rasterizes with subtiles.  ``sorting_passes`` counts how many
    times the tile-Gaussian stream crosses the off-chip interface per sort.
    """

    frequency_ghz: float = 1.0
    tile_size: int = 16
    cores: int = 16
    sorting_passes: int = 1

    def with_cores(self, cores: int) -> "GSCoreConfig":
        """Copy with a different core count (Fig. 4 sweeps)."""
        return replace(self, cores=cores)


@dataclass(frozen=True)
class GpuConfig:
    """Orin AGX-class edge GPU, roofline-style.

    Parameters
    ----------
    compute_tflops:
        Sustained FP32 throughput available to the rendering kernels.
    sort_passes:
        Radix-sort passes of the CUB pipeline over the (key, value) stream;
        each pass reads and writes the full stream.
    sort_entry_bytes:
        Bytes per sorted record (64-bit key + 32-bit payload).
    """

    bandwidth_gbps: float = ORIN_BANDWIDTH_GBPS
    compute_tflops: float = 1.3
    sort_passes: int = 5
    sort_entry_bytes: int = 12
    tile_size: int = 16
