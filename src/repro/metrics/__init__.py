"""Metrics: image quality, temporal similarity, statistics helpers."""

from .image import lpips_proxy, mse, psnr, quality_report, ssim, to_luminance
from .similarity import (
    SimilarityStats,
    frame_similarity,
    sequence_similarity,
)
from .stats import (
    empirical_cdf,
    geometric_mean,
    harmonic_mean,
    percentile_summary,
    relative_error,
)

__all__ = [
    "SimilarityStats",
    "empirical_cdf",
    "frame_similarity",
    "geometric_mean",
    "harmonic_mean",
    "lpips_proxy",
    "mse",
    "percentile_summary",
    "psnr",
    "quality_report",
    "relative_error",
    "sequence_similarity",
    "ssim",
    "to_luminance",
]
