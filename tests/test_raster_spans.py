"""Row significance spans of the level-major raster core.

The rasterizer evaluates alpha only inside each (splat, bbox row)'s
significance span (:func:`repro.pipeline.rasterizer._row_spans`).  That is
exact only if every pixel the frozen scalar formula calls significant lies
inside its span.  These properties check that containment on random splats
(opacities near ``MIN_ALPHA`` and above ``MAX_ALPHA``, sub-pixel and
off-tile centers, radii from 0.5 to 200 px, anisotropic rotated conics),
the full-row fallback for degenerate conics, the :class:`RasterWork`
counters, and bit-identity of :func:`rasterize` with the reference on
scenes made of such splats.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.pipeline import reference as ref
from repro.pipeline.projection import ProjectedGaussians
from repro.pipeline.rasterizer import MAX_ALPHA, MIN_ALPHA, _row_spans, rasterize
from repro.pipeline.sorting import sort_tiles
from repro.pipeline.tiling import TileGrid, assign_to_tiles

#: Pixels whose alpha is within this factor of ``MIN_ALPHA`` must lie in
#: their span with a column of room on each side: the span solves a
#: threshold lowered by 0.1% and is widened by one column each side.
NEAR = 0.9995


def _conic(sigma_major, ratio, theta):
    """Inverse of a rotated 2D covariance, as ``(a, b, c)``."""
    s1, s2 = sigma_major, sigma_major / ratio
    cos, sin = np.cos(theta), np.sin(theta)
    xx = cos * cos * s1 * s1 + sin * sin * s2 * s2
    yy = sin * sin * s1 * s1 + cos * cos * s2 * s2
    xy = cos * sin * (s1 * s1 - s2 * s2)
    det = xx * yy - xy * xy
    return yy / det, -xy / det, xx / det


opacities = st.one_of(
    st.floats(-1e-3, 1e-3).map(lambda e: MIN_ALPHA * (1.0 + e)),
    st.floats(MIN_ALPHA, 1.0),
    st.floats(MAX_ALPHA, 4.0),
    st.sampled_from([0.0, 0.999 * MIN_ALPHA, MIN_ALPHA, MAX_ALPHA, 1.0]),
)
centers = st.one_of(
    st.floats(-30.0, 94.0),
    st.integers(-30, 94).map(lambda i: i + 0.5),  # exactly on pixel centers
)
radii = st.floats(0.5, 200.0)


@st.composite
def ellipses(draw):
    """``(a, b, c, radius)`` of a rotated, possibly very anisotropic splat."""
    radius = draw(radii)
    ratio = draw(st.one_of(st.just(1.0), st.floats(1.0, 40.0)))
    theta = draw(st.floats(0.0, np.pi))
    a, b, c = _conic(radius / 3.0, ratio, theta)
    return a, b, c, radius


@st.composite
def degenerate_conics(draw):
    """Conics projection would reject: ``a <= 0``, indefinite, non-finite."""
    wild = st.one_of(
        st.floats(-1e3, 1e3), st.sampled_from([0.0, np.inf, -np.inf, np.nan])
    )
    kind = draw(st.sampled_from(["a_nonpositive", "indefinite", "nonfinite"]))
    if kind == "a_nonpositive":
        a = draw(st.one_of(st.floats(-1e3, 0.0), st.just(-0.0)))
        return a, draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))
    if kind == "indefinite":
        a = draw(st.floats(1e-3, 1e2))
        c = draw(st.floats(-1e2, 1e2))
        b = draw(st.floats(0.0, 1e2)) + np.sqrt(max(a * c, 0.0))
        return a, b * draw(st.sampled_from([1.0, -1.0])), c
    values = [draw(wild), draw(wild), draw(wild)]
    values[draw(st.integers(0, 2))] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    return tuple(values)


def _scalar_rows(a, b, c, opacity, cx, cy, radius, tile):
    """Alpha, span mask and spans of one splat on the tile at the origin.

    Alpha is the frozen scalar loop's formula; the per-row operands are
    formed exactly as the core forms them.  ``None`` for an empty bbox.
    """
    gx0 = max(int(np.floor(cx - radius)), 0)
    gx1 = min(int(np.ceil(cx + radius)) + 1, tile)
    gy0 = max(int(np.floor(cy - radius)), 0)
    gy1 = min(int(np.ceil(cy + radius)) + 1, tile)
    if gx0 >= gx1 or gy0 >= gy1:
        return None
    dx = np.arange(gx0, gx1) + 0.5 - cx
    dy = np.arange(gy0, gy1) + 0.5 - cy
    with np.errstate(all="ignore"):
        first, span = _row_spans(
            np.array([a]),
            np.array([opacity]),
            np.zeros(dy.size, dtype=np.intp),
            b * dy,
            np.square(dy) * c,
            dx[:1].copy(),
            np.array([dx.size]),
        )
        power = -0.5 * (a * dx[None, :] ** 2 + c * dy[:, None] ** 2) - b * dy[:, None] * dx[None, :]
        alpha = np.minimum(opacity * np.exp(np.minimum(power, 0.0)), MAX_ALPHA)
    alpha[power > 0] = 0.0
    cols = np.arange(dx.size)
    inside = (cols >= first[:, None]) & (cols < (first + span)[:, None])
    return alpha, inside, first, span


def _assert_contained(alpha, inside, opacity):
    significant = alpha >= MIN_ALPHA
    assert not (significant & ~inside).any()
    if opacity >= MIN_ALPHA:
        near = alpha >= NEAR * MIN_ALPHA
        padded = near.copy()
        padded[:, 1:] |= near[:, :-1]
        padded[:, :-1] |= near[:, 1:]
        assert not (padded & ~inside).any()


class TestSpanContainment:
    @given(ellipses(), opacities, centers, centers, st.sampled_from([16, 64]))
    @settings(max_examples=300, deadline=None)
    # A pixel just inside 0.1% of the threshold, one column past the root.
    @example((1.0, 0.0, 1.0, 6.0), 1.0, 8.5 - np.sqrt(2 * np.log(255 / 0.9996)), 8.5, 16)
    def test_every_significant_pixel_is_inside_its_span(
        self, ellipse, opacity, cx, cy, tile
    ):
        a, b, c, radius = ellipse
        rows = _scalar_rows(a, b, c, opacity, cx, cy, radius, tile)
        assume(rows is not None)
        alpha, inside, _, _ = rows
        _assert_contained(alpha, inside, opacity)

    @given(degenerate_conics(), opacities, centers, centers, radii)
    @settings(max_examples=300, deadline=None)
    @example((-0.1, 0.0, 1.0), 1.0, 8.0, 8.5, 6.0)
    def test_degenerate_conics_keep_their_significant_pixels(
        self, conic, opacity, cx, cy, radius
    ):
        a, b, c = conic
        rows = _scalar_rows(a, b, c, opacity, cx, cy, radius, 64)
        assume(rows is not None)
        alpha, inside, first, span = rows
        _assert_contained(alpha, inside, opacity)
        if not (a > 0 and np.isfinite(a)):
            # No solve: the whole bbox row, or nothing below MIN_ALPHA.
            assert (first == 0).all()
            expected = 0 if opacity < MIN_ALPHA else alpha.shape[1]
            assert (span == expected).all()

    def test_rows_outside_the_ellipse_are_empty(self):
        alpha, inside, _, span = _scalar_rows(1.0, 0.0, 1.0, 1.0, 32.0, 32.0, 20.0, 64)
        assert not inside[0].any() and not inside[-1].any()
        assert 0 < span.max() < alpha.shape[1]
        assert (span > 0).sum() < span.size


def _scene(rng, n, width, height, degenerate):
    """Random splats of every span case on one frame."""
    radii_ = rng.uniform(0.5, 40.0, n)
    radii_[: n // 8] = rng.uniform(40.0, 200.0, n // 8)
    conic = np.stack(
        [
            _conic(r / 3.0, rng.uniform(1.0, 30.0), rng.uniform(0.0, np.pi))
            for r in radii_
        ]
    )
    if degenerate:
        rows = rng.choice(n, size=n // 4, replace=False)
        conic[rows] = rng.uniform(-1.0, 1.0, (rows.size, 3))
        conic[rows[:3], 0] = [0.0, -0.5, np.nan]
        conic[rows[3:5], 1] = [np.inf, np.nan]
    opac = rng.choice(
        [0.5 * MIN_ALPHA, MIN_ALPHA * (1 + 1e-4), 0.3, 0.9, MAX_ALPHA + 0.005, 2.0], n
    )
    opac[: n // 2] = rng.uniform(MIN_ALPHA, 1.0, n // 2)
    return ProjectedGaussians(
        ids=np.arange(n, dtype=np.int64),
        means2d=rng.uniform((-20.0, -20.0), (width + 20.0, height + 20.0), (n, 2)),
        conic=conic,
        depths=rng.uniform(0.5, 20.0, n),
        radii=radii_,
        colors=rng.uniform(0.0, 1.0, (n, 3)),
        opacities=opac,
    )


class TestSpansBitIdentity:
    @given(st.integers(0, 2**32 - 1), st.integers(20, 60), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_rasterize_matches_reference(self, seed, n, degenerate):
        rng = np.random.default_rng(seed)
        proj = _scene(rng, n, 96, 80, degenerate)
        for tile in (16, 64):
            grid = TileGrid(width=96, height=80, tile_size=tile)
            sorted_tiles = sort_tiles(assign_to_tiles(proj, grid))
            for termination in (1e-4, 0.5):
                with np.errstate(all="ignore"):
                    got = rasterize(sorted_tiles, proj, grid, termination=termination)
                    want = ref.rasterize(sorted_tiles, proj, grid, termination=termination)
                assert np.array_equal(got.image, want.image)
                assert got.valid_bits.keys() == want.valid_bits.keys()
                for t, bits in want.valid_bits.items():
                    assert np.array_equal(got.valid_bits[t], bits)
                assert got.stats == want.stats


class TestRasterWork:
    @pytest.mark.parametrize("tile", [16, 64])
    def test_work_counts_are_ordered(self, tile):
        proj = _scene(np.random.default_rng(tile), 80, 96, 80, degenerate=False)
        grid = TileGrid(width=96, height=80, tile_size=tile)
        sorted_tiles = sort_tiles(assign_to_tiles(proj, grid))
        result = rasterize(sorted_tiles, proj, grid, termination=0.0)
        work = result.work
        assert result.stats.early_terminated_tiles == 0
        assert 0 < work.significant <= work.span_pixels <= work.bbox_pixels
        assert work.span_pixels < work.bbox_pixels
        assert work.bbox_pixels == result.stats.blend_ops
        assert 0 < work.levels <= sorted_tiles.stream.counts().max()

    def test_work_is_not_part_of_the_compared_stats(self):
        proj = _scene(np.random.default_rng(3), 40, 96, 80, degenerate=False)
        grid = TileGrid(width=96, height=80, tile_size=16)
        sorted_tiles = sort_tiles(assign_to_tiles(proj, grid))
        got = rasterize(sorted_tiles, proj, grid)
        want = ref.rasterize(sorted_tiles, proj, grid)
        assert got.stats == want.stats
        assert want.work.bbox_pixels == 0 < got.work.bbox_pixels
