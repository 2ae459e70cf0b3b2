"""3DGS rendering pipeline: culling, feature extraction, tiling, sorting, rasterization."""

from .culling import FRUSTUM_MARGIN, CullingResult, frustum_cull
from .framebuffer import Framebuffer
from .projection import (
    COV2D_DILATION,
    ProjectedGaussians,
    compute_cov2d,
    conic_from_cov2d,
    project_gaussians,
    splat_radii,
)
from .rasterizer import (
    MAX_ALPHA,
    MIN_ALPHA,
    NEO_SUBTILE_SIZE,
    TERMINATION_THRESHOLD,
    RasterResult,
    RasterStats,
    RasterWork,
    rasterize,
)
from .renderer import (
    ExactSortStrategy,
    FrameRecord,
    FrameStats,
    Renderer,
    SortStrategy,
    StageTimings,
    aggregate_timings,
)
from .sorting import (
    SortedTiles,
    is_depth_sorted,
    kendall_tau_distance,
    order_quality,
    sort_tiles,
)
from .tiling import (
    GPU_TILE_SIZE,
    NEO_TILE_SIZE,
    TileAssignment,
    TileGrid,
    assign_to_tiles,
    pair_lists,
    row_intervals,
    tile_ranges,
)

__all__ = [
    "COV2D_DILATION",
    "CullingResult",
    "ExactSortStrategy",
    "FRUSTUM_MARGIN",
    "Framebuffer",
    "FrameRecord",
    "FrameStats",
    "GPU_TILE_SIZE",
    "MAX_ALPHA",
    "MIN_ALPHA",
    "NEO_SUBTILE_SIZE",
    "NEO_TILE_SIZE",
    "ProjectedGaussians",
    "RasterResult",
    "RasterStats",
    "RasterWork",
    "Renderer",
    "SortStrategy",
    "SortedTiles",
    "StageTimings",
    "TERMINATION_THRESHOLD",
    "TileAssignment",
    "TileGrid",
    "aggregate_timings",
    "assign_to_tiles",
    "compute_cov2d",
    "conic_from_cov2d",
    "frustum_cull",
    "is_depth_sorted",
    "kendall_tau_distance",
    "order_quality",
    "pair_lists",
    "project_gaussians",
    "rasterize",
    "row_intervals",
    "sort_tiles",
    "splat_radii",
    "tile_ranges",
]
