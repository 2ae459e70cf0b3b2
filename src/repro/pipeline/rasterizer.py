"""Tile-based alpha-blending rasterization (pipeline stage 4).

Per tile, Gaussians are blended front-to-back in depth order; a pixel stops
accumulating once its transmittance drops below the termination threshold.
The rasterizer also models the two hardware-relevant behaviours of Neo's
Rasterization Engine:

* **Subtile intersection testing** (ITU): each tile is subdivided into
  subtiles; a Gaussian is only blended into subtiles its bounding circle
  overlaps, and the per-tile OR of those bitmaps doubles as the *valid bit*
  that flags outgoing Gaussians for the next frame's deferred deletion.
* **Blend-op accounting**: the number of (Gaussian, subtile) tests and
  (Gaussian, bbox pixel) evaluations of the scalar loop feeds the hardware
  timing model.

**One bucketed whole-frame core.**  Front-to-back compositing looks
inherently sequential (each Gaussian needs the transmittance its
predecessors left behind), but the recurrence is a running product: the
transmittance a Gaussian sees is ``T_in = T_0 * prod_{j<k} (1 - alpha_j)``
and its color contribution ``T_in * alpha_k * c_k`` depends on no other
contribution.  :func:`rasterize` therefore blends many tiles at once: a
frame's nonempty tiles are grouped into occupancy buckets (same tile shape,
power-of-two depth-count class, so padding to the bucket maximum costs
< 2x), each bucket is packed into ``(tiles, depth)`` arrays straight from
the ``TileStream`` offsets, and :func:`_blend_bucket_dense` evaluates alpha
in one flat gather, scatters the significant ``(1 - alpha)`` values into a
level-major ``(depth + 1, tiles, tile_h, tile_w)`` stack, and recovers every
incoming transmittance with one strictly sequential ``ufunc.accumulate``.
Padded slots carry ``alpha == 0`` and composite as bitwise no-ops.  Early
termination is exact: stack level ``m`` is the transmittance the scalar
loop inspects before splat ``m``, so each tile's stopping splat is read off
the per-level maxima, its counters come from prefix sums up to that stop,
and later splats' color contributions are dropped.

**Row spans.**  Alpha is evaluated only inside each (splat, bbox row)'s
significance span: the columns where the splat's conic quadratic allows
``alpha >= MIN_ALPHA``, solved per row with a lowered threshold and widened
by a pixel on each side (:func:`_row_spans`).  A pixel outside its span has
``alpha < MIN_ALPHA``, which the scalar loop drops as a bitwise no-op, so
skipping it changes nothing; on a typical frame the spans hold about a
third of the bbox pixels.  ``RasterStats.blend_ops`` still counts bbox
pixels, the scalar loop's and the hardware model's workload, while
:class:`RasterWork` records what the core actually touched.

Every intermediate float is produced by the same operations in the same
order as the scalar per-Gaussian loop, so images, ``valid_bits`` and every
:class:`RasterStats` counter are bit-identical to the frozen reference in
:mod:`repro.pipeline.reference`, at every tile size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .framebuffer import Framebuffer
from .projection import ProjectedGaussians
from .sorting import SortedTiles
from .tiling import TileGrid

#: Contributions below 1/255 are invisible at 8-bit output and skipped,
#: matching the reference CUDA rasterizer.
MIN_ALPHA = 1.0 / 255.0

#: Alpha ceiling (reference implementation clips at 0.99).
MAX_ALPHA = 0.99

#: A pixel is finalized once its transmittance falls below this.
TERMINATION_THRESHOLD = 1e-4

#: Subtile edge used by the Neo accelerator (Table 1).
NEO_SUBTILE_SIZE = 8

#: Element budget for one ``(depth + 1, tiles, tile_h, tile_w)`` level
#: stack of the bucketed whole-frame core.  Buckets whose stacks would
#: exceed it are processed in tile slabs (and, failing that, depth
#: segments), bounding peak memory while still amortizing kernel-launch
#: overhead over dozens of tiles per call.
_BUCKET_ELEMENT_BUDGET = 1 << 20

#: Reused backing stores for the bucketed core's large flat temporaries
#: (level stack, per-pixel operand/index arrays).  Freshly mmap'd pages
#: cost more to fault in than the math run over them, so each named role
#: keeps one buffer, grown on demand and recycled across slabs and frames.
_POOL: dict[str, np.ndarray] = {}


def _pool(name: str, n: int, dtype=np.float64) -> np.ndarray:
    """A pooled scratch array of ``n`` elements, reused across calls."""
    buf = _POOL.get(name)
    if buf is None or buf.size < n or buf.dtype != np.dtype(dtype):
        buf = np.empty(n, dtype=dtype)
        _POOL[name] = buf
    return buf[:n]


def _iota(n: int) -> np.ndarray:
    """The cached int32 sequence ``0..n-1`` (read-only by convention)."""
    buf = _POOL.get("iota")
    if buf is None or buf.size < n:
        buf = np.arange(max(n, 1 << 16), dtype=np.int32)
        _POOL["iota"] = buf
    return buf[:n]


#: Plane size (elements per level) from which :func:`_accumulate_multiply`
#: loops over levels instead of calling ``np.multiply.accumulate``.  The
#: strided accumulate inner loop runs ~8x slower than a contiguous
#: multiply, so large planes take one vectorized multiply per level; small
#: planes stay on the ufunc, where per-call overhead dominates.
_LEVEL_LOOP_MIN_INNER = 4096


def _accumulate_multiply(levels: np.ndarray) -> None:
    """Running product down axis 0 of a 2-D array, in place.

    Both formulations perform the identical multiply sequence
    ``levels[m] = levels[m - 1] * levels[m]``, strictly left to right, so
    they are bit-identical; only the size decides which is faster.
    """
    if levels[0].size >= _LEVEL_LOOP_MIN_INNER:
        for m in range(1, levels.shape[0]):
            np.multiply(levels[m - 1], levels[m], out=levels[m])
    else:
        np.multiply.accumulate(levels, axis=0, out=levels)


@dataclass
class RasterStats:
    """Workload counters accumulated over a frame.

    Attributes
    ----------
    gaussians_processed:
        Tile-Gaussian pairs walked by the blending loop.
    blend_ops:
        Bbox pixels the scalar loop evaluates (the hardware model's
        workload).  The bucketed core evaluates alpha only inside each
        splat's significance spans; see :class:`RasterWork` for that count.
    subtile_tests:
        (Gaussian, subtile) intersection tests performed by the ITU model.
    subtile_hits:
        Tests that found an overlap (work routed to an SCU).
    early_terminated_tiles:
        Tiles whose blending loop exited before exhausting their list.
    """

    gaussians_processed: int = 0
    blend_ops: int = 0
    subtile_tests: int = 0
    subtile_hits: int = 0
    early_terminated_tiles: int = 0

    def merge(self, other: "RasterStats") -> None:
        """Accumulate another tile's counters into this frame total."""
        self.gaussians_processed += other.gaussians_processed
        self.blend_ops += other.blend_ops
        self.subtile_tests += other.subtile_tests
        self.subtile_hits += other.subtile_hits
        self.early_terminated_tiles += other.early_terminated_tiles


@dataclass
class RasterWork:
    """Elements the bucketed core actually touched over a frame.

    Kept apart from :class:`RasterStats`, which is compared bit for bit
    with the frozen scalar reference (that reference reports no work).
    All counts cover every splat of the processed depth segments, including
    splats after a tile's early-termination stop.

    Attributes
    ----------
    bbox_pixels:
        (splat, bbox pixel) pairs; equals ``RasterStats.blend_ops`` when no
        tile terminates early.
    span_pixels:
        Pairs inside the significance spans, where alpha is evaluated.
    significant:
        Span pixels whose alpha reached ``MIN_ALPHA``.
    stack_elements:
        Elements of the level-major transmittance stacks.
    """

    bbox_pixels: int = 0
    span_pixels: int = 0
    significant: int = 0
    stack_elements: int = 0


@dataclass
class RasterResult:
    """Frame output: image, per-tile valid bits, and workload counters.

    ``valid_bits[t]`` aligns with the sorted row list of tile ``t`` and is
    ``True`` where the Gaussian intersected at least one subtile — the signal
    Neo's ITU feeds back to the Sorting Engine for lazy deletion.  ``work``
    counts what the bucketed core touched and is not part of the output
    pinned to the reference.
    """

    image: np.ndarray
    valid_bits: dict[int, np.ndarray] = field(default_factory=dict)
    stats: RasterStats = field(default_factory=RasterStats)
    work: RasterWork = field(default_factory=RasterWork)


def _row_spans(
    a: np.ndarray,
    opacity: np.ndarray,
    bh: np.ndarray,
    b_dy: np.ndarray,
    c_dy2: np.ndarray,
    dx_first: np.ndarray,
    bw: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Significance span ``[first, first + span)`` of each (member, bbox row).

    ``a``, ``opacity``, ``dx_first`` (the ``dx`` of bbox column 0) and
    ``bw``/``bh`` (bbox width, height) are per member; ``b_dy`` (``b * dy``)
    and ``c_dy2`` (``c * dy**2``) are per bbox row, ``bh[i]`` rows per
    member.  Columns are bbox column offsets, so ``dx = dx_first + j``.

    A pixel is significant only where ``opacity * exp(power) >= MIN_ALPHA``,
    i.e. where ``a*dx**2 + 2*(b*dy)*dx + c*dy**2 + 2*ln(MIN_ALPHA/opacity)
    <= 0``.  Each row solves that quadratic in ``dx`` with the threshold
    lowered by 0.1% and widens the root interval by one column on each
    side, so every significant pixel lies strictly inside its span, with
    margin to spare over rounding.  Rows with ``a <= 0`` or a non-finite
    solve keep the whole bbox row.  A row is empty only where ``a > 0`` and
    the quadratic has no real root, or where ``opacity < MIN_ALPHA``.
    """
    rowbw = np.repeat(bw, bh).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inva = 1.0 / a
        inva[~((a > 0) & (a < np.inf))] = np.nan  # no solve: NaN bounds give full rows
        thresh = np.log((0.999 * MIN_ALPHA) / opacity)
        thresh *= 2.0
        center = np.repeat(inva, bh)
        half = c_dy2 + np.repeat(thresh, bh)
        half *= center
        center *= b_dy
        np.negative(center, out=center)  # vertex -b*dy/a
        np.subtract(np.square(center), half, out=half)  # half-width squared
        # a > 0 with no real root (NaN, where a <= 0, is not negative).
        keep = ~(half < 0.0)
        keep &= np.repeat(~(opacity < MIN_ALPHA), bh)
        np.sqrt(half, out=half)
        center -= np.repeat(dx_first, bh)  # vertex as a bbox column offset
        lo = center - half
        hi = np.add(center, half, out=center)
        nonfinite = lo + hi  # NaN wherever either bound is not finite
        nonfinite -= nonfinite
        lo += nonfinite
        hi += nonfinite
        np.ceil(lo, out=lo)
        lo -= 1.0
        np.floor(hi, out=hi)
        hi += 2.0  # exclusive
    first = np.fmax(lo, 0.0, out=lo)  # NaN -> 0
    np.minimum(first, rowbw, out=first)
    np.fmin(hi, rowbw, out=hi)  # NaN -> bw
    np.maximum(hi, first, out=hi)
    hi -= first
    hi *= keep
    return first.astype(np.int32), hi.astype(np.int32)


def _blend_bucket_dense(
    framebuffer: Framebuffer,
    x0_b: np.ndarray,
    y0_b: np.ndarray,
    h: int,
    w: int,
    counts: np.ndarray,
    means: np.ndarray,
    conics: np.ndarray,
    radii: np.ndarray,
    opacities: np.ndarray,
    colors: np.ndarray,
    valid: np.ndarray,
    gx0: np.ndarray,
    gx1: np.ndarray,
    gy0: np.ndarray,
    gy1: np.ndarray,
    bbox_areas: np.ndarray,
    termination: float,
    stats: RasterStats,
    work: RasterWork,
) -> None:
    """Blend one bucket slab of same-shape dense tiles with a tile axis.

    The slab's whole depth range is processed in one pass (split into depth
    segments only when the level stack would blow the element budget):
    every (tile, splat) pixel inside a significance span (see
    :func:`_row_spans`) is gathered into one flat array — no whole-tile
    padding, and no alpha evaluation on the bbox pixels outside the spans,
    which cannot reach ``MIN_ALPHA`` — and the significant ``(1 - alpha)``
    values are scattered into a level-major ``(depth + 1, tiles, tile_h,
    tile_w)`` stack whose strictly-sequential cumulative product recovers every
    per-splat incoming transmittance at once.  Color accumulates through
    ordered ``np.add.at`` scatter-adds: indices are laid out tile-major,
    splat-ascending, so colliding pixels accumulate in exactly the scalar
    loop's front-to-back order and association (``ufunc.at`` applies
    updates in index order).

    Early termination needs no replay: stack level ``m`` *is* the
    transmittance the scalar loop's pre-splat check inspects before splat
    ``m``, so the exact stopping splat of every tile is read straight off
    the per-level maxima — the first level below the threshold.  A
    terminated tile keeps level ``stop`` as its final transmittance, drops
    the color contributions of splats ``>= stop``, and takes its counters
    from prefix sums over ``valid`` / ``bbox_areas`` up to ``stop`` —
    landing on the same Gaussian with the same counters as the scalar
    loop, at any segment size.

    Pixels a splat does not touch, or touches below ``MIN_ALPHA``, multiply
    transmittance by ``1.0`` and add nothing — bitwise no-ops on the
    reachable state (transmittance is non-negative and accumulated color is
    never ``-0.0``), which is why padded slots (``valid`` False,
    ``bbox_areas`` 0) and the pixels outside the spans are free.
    """
    num_tiles, depth = valid.shape
    hw = h * w
    px = x0_b[:, None] + (np.arange(w) + 0.5)  # == arange(x0, x1) + 0.5, exactly
    py = y0_b[:, None] + (np.arange(h) + 0.5)
    trans = np.ones((num_tiles, h, w))
    color = np.zeros((num_tiles, h, w, 3))
    alive = np.ones(num_tiles, dtype=bool)
    n_max = int(counts.max())
    # Depth segment sized so the (segment + 1, tiles, h, w) stack stays
    # within the element budget; normally the caller's tile slabbing makes
    # this one segment covering the whole list.
    d_seg = max(1, _BUCKET_ELEMENT_BUDGET // (num_tiles * hw) - 1)

    for s in range(0, n_max, d_seg):
        # Tiles whose list is exhausted finished naturally: no further
        # termination checks, no counters — exactly the scalar loop ending.
        alive &= counts > s
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        e = min(s + d_seg, n_max)
        k = e - s
        ta = idx.size
        k_arr = np.minimum(counts[idx] - s, k)

        # Flat gather of the segment's bbox pixels, tile-major and
        # splat-ascending within each tile.
        areas = bbox_areas[idx, s:e].ravel()
        pos = np.flatnonzero(areas)
        if pos.size == 0:
            # No splat touches a pixel: transmittance is unchanged, so only
            # the segment-entry check (the scalar check before splat s) can
            # fire; counters advance for the rest.
            term = trans[idx].max(axis=(1, 2)) < termination
            if term.any():
                stats.early_terminated_tiles += int(np.count_nonzero(term))
                alive[idx[term]] = False
                idx = idx[~term]
            stats.gaussians_processed += int(np.count_nonzero(valid[idx, s:e]))
            continue

        t_loc = (pos // k).astype(np.int32)  # row within idx
        m_loc = (pos % k).astype(np.int32)  # splat within segment
        bw = (gx1[idx, s:e].ravel()[pos] - gx0[idx, s:e].ravel()[pos]).astype(np.int32)
        bh = (gy1[idx, s:e].ravel()[pos] - gy0[idx, s:e].ravel()[pos]).astype(np.int32)
        gx0p = gx0[idx, s:e].ravel()[pos].astype(np.int32)
        gy0p = gy0[idx, s:e].ravel()[pos].astype(np.int32)

        # The scalar loop evaluates its quadratic per member *axis*, not
        # per pixel: ``dx``/``a * dx**2`` over the bbox columns and
        # ``dy``/``c * dy**2``/``b * dy`` over the bbox rows, broadcast
        # together per pixel.  Reproduce exactly that factoring — the
        # per-axis tables below hold the same floats the scalar broadcast
        # produced, and the per-pixel combine performs the same three ops
        # in the same order — then gather per-pixel operands from the
        # tables.  (Σ bbox widths + heights is ~3x smaller than Σ areas,
        # so the expensive transcendental-free math runs on far fewer
        # elements than the per-pixel formulation.)
        mc = means[idx, s:e].reshape(ta * k, 2)
        cc = conics[idx, s:e].reshape(ta * k, 3)
        cexc = np.zeros(pos.size + 1, dtype=np.int64)
        np.cumsum(bw, out=cexc[1:])
        rexc = np.zeros(pos.size + 1, dtype=np.int64)
        np.cumsum(bh, out=rexc[1:])
        cexc32 = cexc[:-1].astype(np.int32)
        rexc32 = rexc[:-1].astype(np.int32)
        pxi = px[idx].ravel()
        pyi = py[idx].ravel()

        ccol = np.arange(int(cexc[-1]), dtype=np.int32)
        ccol -= cexc32[np.repeat(np.arange(pos.size, dtype=np.int32), bw)]
        dxcat = pxi[np.repeat(t_loc * np.int32(w) + gx0p, bw) + ccol]
        dxcat -= np.repeat(mc[pos, 0], bw)  # px[col] - cx, per (member, col)
        ucat = np.square(dxcat)  # dx**2 (ndarray ** 2 lowers to square)
        ucat *= np.repeat(cc[pos, 0], bw)  # a * dx**2

        rowmem = np.repeat(np.arange(pos.size, dtype=np.int32), bh)
        rrow = np.arange(int(rexc[-1]), dtype=np.int32)
        rrow -= rexc32[rowmem]  # row ordinal within its member's bbox
        dycat = pyi[np.repeat(t_loc * np.int32(h) + gy0p, bh) + rrow]
        dycat -= np.repeat(mc[pos, 1], bh)  # py[row] - cy, per (member, row)
        vcat = np.square(dycat)
        vcat *= np.repeat(cc[pos, 2], bh)  # c * dy**2
        w1cat = np.repeat(cc[pos, 1], bh)
        w1cat *= dycat  # b * dy

        # Alpha is evaluated only inside each (member, bbox row)'s
        # significance span; the pixels outside it are bitwise no-ops.
        opac = opacities[idx, s:e].reshape(ta * k)[pos]
        first, span = _row_spans(cc[pos, 0], opac, bh, w1cat, vcat, dxcat[cexc32], bw)

        # Pixels are member-major, row-major: each nonempty (member, row)
        # span is one contiguous run.  Everything per-pixel then derives
        # from the *span ordinal* — recovered as an indicator cumsum over
        # the runs, which needs every run nonempty, so empty rows are
        # dropped first — through per-span tables, which removes the
        # per-pixel integer divmod entirely.  Every full-length temporary
        # lives in a pooled buffer: at millions of elements, a fresh
        # allocation's page faults cost as much as the pass over it.
        rows = np.flatnonzero(span).astype(np.int32)  # span ordinal -> row
        linbase = m_loc + np.int32(1)
        linbase *= np.int32(ta)
        linbase += t_loc
        linbase *= np.int32(hw)
        linbase += gy0p * np.int32(w)
        linbase += gx0p  # the member's pixel base folds into its level base
        rowlin = np.repeat(linbase, bh)
        rowlin += rrow * np.int32(w)  # stack-linear base of each bbox row
        rowlin += first
        rowlin = rowlin[rows]
        span = span[rows]
        rowstarts = np.zeros(span.size + 1, dtype=np.int64)
        np.cumsum(span, out=rowstarts[1:])
        total = int(rowstarts[-1])
        rowstarts32 = rowstarts[:-1].astype(np.int32)
        rowcexc = np.repeat(cexc32, bh)  # column-table start of each row
        rowcexc += first
        rowcexc = rowcexc[rows]
        vcat = vcat[rows]
        w1cat = w1cat[rows]
        rowopac = np.repeat(opac, bh)[rows]
        work.bbox_pixels += int(areas.sum())
        work.span_pixels += total

        ridx = _pool("ia", total, np.int32)
        ridx[:] = 0
        ridx[rowstarts[1:-1]] = 1
        np.cumsum(ridx, out=ridx)  # span ordinal per pixel
        cloc = _pool("ib", total, np.int32)
        np.take(rowstarts32, ridx, out=cloc, mode="clip")
        np.subtract(_iota(total), cloc, out=cloc)  # column within the span
        cidx = _pool("ic", total, np.int32)
        np.take(rowcexc, ridx, out=cidx, mode="clip")
        cidx += cloc  # flat pixel -> its member-column table entry
        power = _pool("fa", total)
        np.take(ucat, cidx, out=power, mode="clip")
        opnd = _pool("fb", total)
        np.take(vcat, ridx, out=opnd, mode="clip")
        power += opnd  # a*dx**2 + c*dy**2, per pixel
        power *= -0.5
        np.take(w1cat, ridx, out=opnd, mode="clip")
        opnd2 = _pool("fc", total)
        np.take(dxcat, cidx, out=opnd2, mode="clip")
        opnd *= opnd2  # (b * dy) * dx, per pixel
        power -= opnd
        ok = _pool("ba", total, bool)
        np.less_equal(power, 0.0, out=ok)
        np.minimum(power, 0.0, out=power)
        np.exp(power, out=power)
        np.take(rowopac, ridx, out=opnd, mode="clip")
        power *= opnd
        alpha = np.minimum(power, MAX_ALPHA, out=power)
        sig = _pool("bb", total, bool)
        np.greater_equal(alpha, MIN_ALPHA, out=sig)
        ok &= sig

        # Level-major seeded stack: level 0 is each tile's incoming
        # transmittance, level m+1 holds (1 - alpha) of segment splat m
        # where significant and exactly 1.0 elsewhere.  The strictly-
        # sequential accumulate then makes level m the transmittance splat
        # m sees, and level k_t each tile's outgoing state (padded levels
        # multiply by 1.0).
        lin = cidx  # "ic": the table indices are consumed
        np.take(rowlin, ridx, out=lin, mode="clip")
        lin += cloc
        sel = np.flatnonzero(ok)
        lin_s = _pool("si", sel.size, np.int32)
        np.take(lin, sel, out=lin_s, mode="clip")
        a_s = _pool("sa", sel.size)
        np.take(alpha, sel, out=a_s, mode="clip")
        rset = _pool("sj", sel.size, np.int32)
        np.take(ridx, sel, out=rset, mode="clip")
        np.take(rows, rset, out=rset, mode="clip")  # bbox row per significant pixel
        one_minus = _pool("sb", sel.size)
        np.subtract(1.0, a_s, out=one_minus)
        work.significant += sel.size
        work.stack_elements += (k + 1) * ta * hw
        tstack = _pool("stack", (k + 1) * ta * hw).reshape(k + 1, ta, h, w)
        tstack[1:] = 1.0
        tstack[0] = trans[idx]
        tstack.reshape(-1)[lin_s] = one_minus
        _accumulate_multiply(tstack.reshape(k + 1, ta * hw))
        tflat = tstack.reshape(-1)

        # Exact per-tile stop: stack level m is the transmittance the
        # scalar loop checks before splat s + m, so the first level below
        # the threshold (within the tile's own list) is the stopping splat.
        # Transmittance is non-increasing level to level (every factor is
        # in [0, 1]), so only tiles whose *final* level dips below the
        # threshold can terminate at all — full stacks are scanned for
        # those few candidates only.
        tview = tstack.reshape(k + 1, ta, hw)
        last = tview[k_arr, np.arange(ta)]  # (ta, hw): each tile's outgoing state
        cand = last.max(axis=1) < termination
        term_t = cand
        stop = k_arr
        if cand.any():
            sub = np.flatnonzero(cand)
            lmax = tview[:, sub].max(axis=2)  # (k + 1, n_candidates)
            cond = lmax < termination
            cond &= np.arange(k + 1)[:, None] < k_arr[sub][None, :]
            term_sub = cond.any(axis=0)
            stop = k_arr.copy()
            stop[sub] = np.where(term_sub, np.argmax(cond, axis=0), k_arr[sub])
            term_t = np.zeros(ta, dtype=bool)
            term_t[sub] = term_sub
        if term_t.any():
            stats.early_terminated_tiles += int(np.count_nonzero(term_t))
            alive[idx[term_t]] = False
            # Drop color contributions of splats at/after each stop.
            rowm = np.repeat(m_loc, bh)
            rowt = np.repeat(t_loc, bh)
            keep = rowm[rset] < stop.astype(np.int32)[rowt[rset]]
            lin_s = lin_s[keep]
            a_s = a_s[keep]
            rset = rset[keep]

        # Counters over exactly the splats the scalar loop processed:
        # valid members (and their bbox pixels) with index < stop.
        nz = np.flatnonzero(stop > 0)
        vcum = np.cumsum(valid[idx, s:e], axis=1)
        bcum = np.cumsum(bbox_areas[idx, s:e], axis=1)
        stats.gaussians_processed += int(vcum[nz, stop[nz] - 1].sum())
        stats.blend_ops += int(bcum[nz, stop[nz] - 1].sum())

        # color += T_in * alpha * c for every significant flat pixel of a
        # splat before its tile's stop.  ufunc.at applies updates strictly
        # in index order, so pixels hit by several splats accumulate
        # front-to-back exactly like the scalar loop; channels are
        # independent bins.
        if lin_s.size:
            n_sig = lin_s.size
            lvl = _pool("sk", n_sig, np.int32)
            np.subtract(lin_s, np.int32(ta * hw), out=lvl)  # one level up: T_in
            wgt = _pool("sc", n_sig)
            np.take(tflat, lvl, out=wgt, mode="clip")
            wgt *= a_s
            # Bin = tile's frame slab + 3 * (pixel offset within tile); the
            # offset is recovered as lin_s mod hw, so the full-length pixel
            # index never needs to be carried this far.
            binbase = idx.astype(np.int32)[t_loc]
            binbase *= np.int32(hw * 3)
            bins = _pool("sm", n_sig, np.int32)
            np.take(np.repeat(binbase, bh), rset, out=bins, mode="clip")
            np.remainder(lin_s, np.int32(hw), out=lvl)
            lvl *= np.int32(3)
            bins += lvl
            cmat = colors[idx, s:e].reshape(ta * k, 3)[pos]
            chan = _pool("sd", n_sig)
            vals = _pool("se", n_sig)
            cflat = color.reshape(-1)
            for ch in range(3):
                np.take(np.repeat(cmat[:, ch], bh), rset, out=chan, mode="clip")
                np.multiply(wgt, chan, out=vals)
                np.add.at(cflat, bins, vals)
                if ch < 2:
                    bins += np.int32(1)

        # Level stop (== k_t when the list ran out) is each tile's state
        # when its loop ended — the carry into the next segment, and the
        # final transmittance for finished tiles.
        if cand.any():
            trans[idx] = tview[stop, np.arange(ta)].reshape(ta, h, w)
        else:
            trans[idx] = last.reshape(ta, h, w)

    # One indexed write per slab: window [y, x] of an (h, w) sliding-window
    # view is the block whose top-left pixel is (y, x), and the slab's tiles
    # are disjoint blocks.
    sliding_window_view(framebuffer.transmittance, (h, w), writeable=True)[y0_b, x0_b] = trans
    sliding_window_view(framebuffer.color, (h, w, 3), writeable=True)[y0_b, x0_b, 0] = color


def _rasterize_bucket(
    framebuffer: Framebuffer,
    projected: ProjectedGaussians,
    stream_values: np.ndarray,
    stream_offsets: np.ndarray,
    tiles_b: np.ndarray,
    counts_b: np.ndarray,
    x0_b: np.ndarray,
    y0_b: np.ndarray,
    x1_b: np.ndarray,
    y1_b: np.ndarray,
    subtile_size: int | None,
    termination: float,
    stats: RasterStats,
    work: RasterWork,
    valid_out: dict[int, np.ndarray],
) -> None:
    """Pack one occupancy bucket of same-shape tiles and blend it.

    Valid bits, subtile counters, and per-splat bboxes are computed once
    over the packed ``(tiles, slots)`` arrays; the tiles then go through
    :func:`_blend_bucket_dense` in memory-bounded slabs.
    """
    h = int(y1_b[0] - y0_b[0])
    w = int(x1_b[0] - x0_b[0])
    n_max = int(counts_b.max())
    num_tiles = tiles_b.shape[0]

    # Pack: slot j of tile t is the tile's j-th sorted row; padded slots
    # repeat the last row and are masked invalid everywhere below.
    slot = np.arange(n_max)
    slot_valid = slot[None, :] < counts_b[:, None]
    src = stream_offsets[tiles_b][:, None] + np.minimum(
        slot[None, :], counts_b[:, None] - 1
    )
    rows_mat = stream_values[src]
    means = projected.means2d[rows_mat]
    conics = projected.conic[rows_mat]
    radii = projected.radii[rows_mat]
    opacities = projected.opacities[rows_mat]
    colors = projected.colors[rows_mat]
    cx = means[:, :, 0]
    cy = means[:, :, 1]

    sub = subtile_size
    if sub is not None:
        # Batched subtile intersection: the reference's clamp-the-center
        # math, with per-tile subtile origins broadcast in.
        sxs = x0_b[:, None] + np.arange(0, w, sub)[None, :]
        sys_ = y0_b[:, None] + np.arange(0, h, sub)[None, :]
        sx_hi = np.minimum(sxs + sub, x1_b[:, None])
        sy_hi = np.minimum(sys_ + sub, y1_b[:, None])
        qx = np.clip(cx[:, :, None], sxs[:, None, :], sx_hi[:, None, :])
        qy = np.clip(cy[:, :, None], sys_[:, None, :], sy_hi[:, None, :])
        dx2 = (qx - cx[:, :, None]) ** 2  # (T, n, Sx)
        dy2 = (qy - cy[:, :, None]) ** 2  # (T, n, Sy)
        r2 = radii * radii
        bitmaps = dx2[:, :, None, :] + dy2[:, :, :, None] <= r2[:, :, None, None]
        bitmaps &= slot_valid[:, :, None, None]
        stats.subtile_tests += int(counts_b.sum()) * sxs.shape[1] * sys_.shape[1]
        hits = np.count_nonzero(bitmaps, axis=(2, 3)).astype(np.int64)
        valid = hits > 0
        stats.subtile_hits += int(hits.sum())
    else:
        qx = np.clip(cx, x0_b[:, None], x1_b[:, None])
        qy = np.clip(cy, y0_b[:, None], y1_b[:, None])
        dist2 = (qx - cx) ** 2 + (qy - cy) ** 2
        valid = (dist2 <= radii**2) & slot_valid

    for t in range(num_tiles):
        valid_out[int(tiles_b[t])] = valid[t, : int(counts_b[t])]

    # Per-splat pixel bboxes, clipped per tile — the same integers the
    # scalar loop derives one splat at a time, with a leading tile axis.
    gx0 = np.maximum(np.floor(cx - radii).astype(np.int64) - x0_b[:, None], 0)
    gx1 = np.minimum(np.ceil(cx + radii).astype(np.int64) - x0_b[:, None] + 1, w)
    gy0 = np.maximum(np.floor(cy - radii).astype(np.int64) - y0_b[:, None], 0)
    gy1 = np.minimum(np.ceil(cy + radii).astype(np.int64) - y0_b[:, None] + 1, h)
    bbox_areas = np.where(
        valid & (gx1 > gx0) & (gy1 > gy0), (gx1 - gx0) * (gy1 - gy0), 0
    )

    tile_area = h * w
    slab = max(1, _BUCKET_ELEMENT_BUDGET // ((n_max + 1) * tile_area))
    for start in range(0, num_tiles, slab):
        loc = slice(start, start + slab)
        _blend_bucket_dense(
            framebuffer,
            x0_b[loc], y0_b[loc], h, w,
            counts_b[loc],
            means[loc], conics[loc], radii[loc], opacities[loc], colors[loc],
            valid[loc],
            gx0[loc], gx1[loc], gy0[loc], gy1[loc], bbox_areas[loc],
            termination, stats, work,
        )


def rasterize(
    sorted_tiles: SortedTiles,
    projected: ProjectedGaussians,
    grid: TileGrid,
    background: tuple[float, float, float] = (0.0, 0.0, 0.0),
    subtile_size: int | None = NEO_SUBTILE_SIZE,
    termination: float = TERMINATION_THRESHOLD,
) -> RasterResult:
    """Rasterize a full frame with occupancy-bucketed whole-frame blending.

    Nonempty tiles are grouped by (tile height, tile width, power-of-two
    depth-count class) and each bucket is blended with a leading tile axis
    (see the module docstring).  Output — image, ``valid_bits``, and every
    :class:`RasterStats` counter — is bit-identical to the frozen scalar
    reference :func:`repro.pipeline.reference.rasterize`.
    """
    framebuffer = Framebuffer(width=grid.width, height=grid.height, background=background)
    result = RasterResult(image=np.empty(0))
    stream = sorted_tiles.stream
    tiles = stream.nonempty()
    if tiles.size == 0:
        result.image = framebuffer.finalize()
        return result

    offsets = stream.offsets
    counts = (offsets[tiles + 1] - offsets[tiles]).astype(np.int64)
    ts = grid.tile_size
    bx0 = (tiles % grid.tiles_x) * ts
    by0 = (tiles // grid.tiles_x) * ts
    bx1 = np.minimum(bx0 + ts, grid.width)
    by1 = np.minimum(by0 + ts, grid.height)

    # Occupancy class: counts in (2^(c-1), 2^c] share class c, so padding
    # each bucket to its maximum count costs < 2x slots.  Edge tiles get
    # their own buckets via the (h, w) part of the key.
    mant, expo = np.frexp(counts.astype(np.float64))
    cls = expo.astype(np.int64) - (mant == 0.5)

    # One stable argsort on the packed (h, w, class) key groups the tiles
    # into buckets, each in ascending tile order (a class is < 64 for any
    # int64 count).
    key = ((by1 - by0) * (ts + 1) + (bx1 - bx0)) * 64 + cls
    order = np.argsort(key, kind="stable")
    cuts = np.flatnonzero(np.diff(key[order])) + 1

    valid_bits: dict[int, np.ndarray] = {}
    for sel in np.split(order, cuts):
        _rasterize_bucket(
            framebuffer,
            projected,
            stream.values,
            offsets,
            tiles[sel],
            counts[sel],
            bx0[sel], by0[sel], bx1[sel], by1[sel],
            subtile_size,
            termination,
            result.stats,
            result.work,
            valid_bits,
        )

    for t in sorted(valid_bits):
        result.valid_bits[t] = valid_bits[t]
    result.image = framebuffer.finalize()
    return result
