"""One-tile raster oracle shared by the rasterizer test files.

:func:`rasterize_one_tile` feeds a single depth-ordered row list through
the production :func:`repro.pipeline.rasterizer.rasterize` on a one-tile
grid and through the frozen scalar loop
:func:`repro.pipeline.reference.rasterize_tile`, asserts they agree bit for
bit, and returns the production result.
"""

from __future__ import annotations

import numpy as np

from repro.pipeline import reference as ref
from repro.pipeline.framebuffer import Framebuffer
from repro.pipeline.projection import ProjectedGaussians
from repro.pipeline.rasterizer import RasterStats, rasterize
from repro.pipeline.sorting import SortedTiles
from repro.pipeline.tiling import TileGrid, TileStream


def rasterize_one_tile(
    projected: ProjectedGaussians,
    rows: np.ndarray,
    width: int,
    height: int,
    **kwargs,
) -> tuple[np.ndarray, RasterStats, np.ndarray]:
    """Blend ``rows`` (in blend order) as the only tile of the frame.

    Asserts bit-identity to the frozen scalar loop.

    Returns ``(valid_bits, stats, image)`` from :func:`rasterize`.  The
    production frame is rendered over a black and a white background, so
    the comparison pins accumulated color and remaining transmittance.
    """
    rows = np.asarray(rows, dtype=np.int64)
    sorted_tiles = SortedTiles(
        stream=TileStream.from_lists([rows]),
        ids=projected.ids[rows],
        depths=projected.depths[rows],
    )
    grid = TileGrid(width, height, max(width, height))
    fb = Framebuffer(width=width, height=height)
    want_valid, want_stats = ref.rasterize_tile(
        fb, projected, rows, (0, 0, width, height), **kwargs
    )
    images = []
    for background in ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)):
        got = rasterize(sorted_tiles, projected, grid, background=background, **kwargs)
        fb.background = background
        assert np.array_equal(got.image, fb.finalize())
        assert got.stats == want_stats
        valid = got.valid_bits.get(0, np.zeros(0, dtype=bool))
        assert np.array_equal(valid, want_valid)
        images.append(got.image)
    return valid, got.stats, images[0]
