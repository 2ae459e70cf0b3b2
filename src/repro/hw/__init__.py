"""Hardware performance models: Neo accelerator, GSCore, Orin AGX GPU."""

from .accelerator import NeoModel
from .area_power import (
    AreaPowerEntry,
    gscore_summary,
    neo_breakdown,
    neo_summary,
    scale_technology,
)
from .config import (
    EDGE_BANDWIDTH_GBPS,
    ORIN_BANDWIDTH_GBPS,
    DramConfig,
    GpuConfig,
    GSCoreConfig,
    NeoConfig,
)
from .energy import (
    DRAM_PJ_PER_BYTE,
    EnergyReport,
    efficiency_comparison,
    energy_report,
)
from .gpu import OrinGpuModel
from .gscore import GSCoreModel
from .stages import (
    FEATURE_2D_BYTES,
    FEATURE_3D_BYTES,
    FrameReport,
    SequenceReport,
    StageTraffic,
    effective_pairs,
)
from .system import (
    FrameBatch,
    ReportBatch,
    SystemModel,
    SystemSpec,
    TrafficBatch,
    get_system,
    iter_systems,
    register_system,
    register_variant,
    registered_systems,
)
from .workload import FrameGeometry, FrameWorkload, WorkloadModel, pair_lists

__all__ = [
    "AreaPowerEntry",
    "DRAM_PJ_PER_BYTE",
    "DramConfig",
    "EnergyReport",
    "efficiency_comparison",
    "energy_report",
    "EDGE_BANDWIDTH_GBPS",
    "FEATURE_2D_BYTES",
    "FEATURE_3D_BYTES",
    "FrameBatch",
    "FrameGeometry",
    "FrameReport",
    "FrameWorkload",
    "GSCoreConfig",
    "GSCoreModel",
    "GpuConfig",
    "NeoConfig",
    "NeoModel",
    "ORIN_BANDWIDTH_GBPS",
    "OrinGpuModel",
    "ReportBatch",
    "SequenceReport",
    "StageTraffic",
    "SystemModel",
    "SystemSpec",
    "TrafficBatch",
    "WorkloadModel",
    "effective_pairs",
    "get_system",
    "iter_systems",
    "register_system",
    "register_variant",
    "registered_systems",
    "gscore_summary",
    "neo_breakdown",
    "neo_summary",
    "pair_lists",
    "scale_technology",
]
