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

**One level-major pass per frame.**  Front-to-back compositing is a
running product per pixel: splat ``k`` of a tile sees ``T_in = T_0 *
prod_{j<k} (1 - alpha_j)`` and adds ``T_in * alpha_k * c_k``.  Splats of
different tiles never share a pixel, so :func:`rasterize` takes every
(tile, slot) pair of the frame's ``TileStream`` in *level-major* order
(slot ascending, tiles ascending within a slot) and walks the levels once
per frame.  A level holds at most one splat per tile, so its pixels are
disjoint, and one gather, multiply and scatter of the framebuffer's own
transmittance plane advances every tile by one splat.  Each splat keeps
the ``T_in`` it read, and color is one ordered ``np.add.at`` per channel of
``(T_in * alpha) * c``: level-major order is every pixel's front-to-back
order, so each pixel accumulates in the scalar loop's order and
association.  Subtile valid bits, bboxes, row spans and alpha are computed
on flat per-pair arrays; the blend runs in contiguous level-major chunks
under a bbox-pixel budget (:data:`_CHUNK_BBOX_PIXELS`), and transmittance
carries from chunk to chunk in the framebuffer.

**Exact early termination.**  The scalar loop stops a tile before splat
``i`` once every one of its pixels is below the threshold.  Transmittance
never grows, so a pixel *crosses* the threshold at exactly one significant
splat; a tile stops at one past its last pixel's crossing level and
terminates if that is short of its list.  That last crossing lies in the
chunk being blended, so only that chunk is rolled back: each pixel of the
tile takes the ``T_in`` of its first splat at or past the stop, those
splats' color is dropped, and later chunks skip the tile.  Counters are
per-tile prefix sums up to the stop.

**Row spans.**  Alpha is evaluated only inside each (splat, bbox row)'s
significance span: the columns where the splat's conic quadratic allows
``alpha >= MIN_ALPHA``, solved per row with a lowered threshold and widened
by a pixel on each side (:func:`_row_spans`).  A pixel outside its span has
``alpha < MIN_ALPHA``, which the scalar loop drops as a bitwise no-op, so
skipping it changes nothing; on a typical frame the spans hold about a
third of the bbox pixels.  ``RasterStats.blend_ops`` still counts bbox
pixels, the scalar loop's and the hardware model's workload, while
:class:`RasterWork` records what the core actually touched.

**Index width and layout.**  Every gather and scatter index is
``np.intp``, NumPy's native index type, so ``take``, ``put`` and
``add.at`` never cast an index array per call.  Each bbox axis has one
member index (``colmem``, ``rowmem``), and every per-column and per-row
table is a ``take`` of a contiguous per-member column through it.  Subtile
valid bits run on subtile-major ``(subtile, pairs)`` planes, so every
inner loop spans the pairs, not a subtile axis two long.  Per-pixel arrays
live in a thread-local pool, and the significant pixels' arrays reuse its
spent buffers, so a steady-state frame faults in almost no fresh pages.

Every intermediate float is produced by the same operations in the same
order as the scalar per-Gaussian loop, so images, ``valid_bits`` and every
:class:`RasterStats` counter are bit-identical to the frozen reference in
:mod:`repro.pipeline.reference`, at every tile size.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

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

#: Bbox-pixel budget of one level-major chunk.  Members whose bboxes start
#: within the same budget window of the frame's running bbox-pixel count
#: are blended together, which bounds the per-pixel temporaries: one
#: unchunked pass over a 6000-Gaussian 480x270 frame peaks at ~105 MB of
#: temporaries, against ~20 MB in chunks.
_CHUNK_BBOX_PIXELS = 1 << 18

#: Reused backing stores for the chunk's per-pixel temporaries.  Freshly
#: mmap'd pages cost more to fault in than the math run over them, so each
#: named role keeps one buffer per thread, grown on demand and recycled
#: across chunks and frames; threads that rasterize at once never share one.
class _Scratch(threading.local):
    """Per-thread scratch buffers by role (``__init__`` runs once per thread)."""

    def __init__(self) -> None:
        self.buffers: dict[str, np.ndarray] = {}


_SCRATCH = _Scratch()


def _pool(name: str, n: int, dtype=np.float64) -> np.ndarray:
    """A pooled scratch array of ``n`` elements, reused across calls."""
    buffers = _SCRATCH.buffers
    buf = buffers.get(name)
    if buf is None or buf.size < n or buf.dtype != np.dtype(dtype):
        buf = np.empty(n, dtype=dtype)
        buffers[name] = buf
    return buf[:n]


@dataclass
class RasterStats:
    """Workload counters accumulated over a frame.

    Attributes
    ----------
    gaussians_processed:
        Tile-Gaussian pairs walked by the blending loop.
    blend_ops:
        Bbox pixels the scalar loop evaluates (the hardware model's
        workload).  The level-major core evaluates alpha only inside each
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
    """Elements the level-major core actually touched over a frame.

    Kept apart from :class:`RasterStats`, which is compared bit for bit
    with the frozen scalar reference (that reference reports no work).
    The pixel counts cover every member of the blended chunks, including
    members after a tile's early-termination stop in the chunk where the
    tile stopped.

    Attributes
    ----------
    bbox_pixels:
        (splat, bbox pixel) pairs; equals ``RasterStats.blend_ops`` when no
        tile terminates early.
    span_pixels:
        Pairs inside the significance spans, where alpha is evaluated.
    significant:
        Span pixels whose alpha reached ``MIN_ALPHA``.
    levels:
        Sequential level steps of the running-transmittance loop: the
        distinct slots holding a significant pixel (a level split across
        chunks counts once), at most the deepest tile's occupancy.
    """

    bbox_pixels: int = 0
    span_pixels: int = 0
    significant: int = 0
    levels: int = 0


@dataclass
class RasterResult:
    """Frame output: image, per-tile valid bits, and workload counters.

    ``valid_bits[t]`` aligns with the sorted row list of tile ``t`` and is
    ``True`` where the Gaussian intersected at least one subtile — the signal
    Neo's ITU feeds back to the Sorting Engine for lazy deletion.  ``work``
    counts what the level-major core touched and is not part of the output
    pinned to the reference.
    """

    image: np.ndarray
    valid_bits: dict[int, np.ndarray] = field(default_factory=dict)
    stats: RasterStats = field(default_factory=RasterStats)
    work: RasterWork = field(default_factory=RasterWork)


def _row_spans(
    a: np.ndarray,
    opacity: np.ndarray,
    rowmem: np.ndarray,
    b_dy: np.ndarray,
    c_dy2: np.ndarray,
    dx_first: np.ndarray,
    bw: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Significance span ``[first, first + span)`` of each (member, bbox row).

    ``a``, ``opacity``, ``dx_first`` (the ``dx`` of bbox column 0) and
    ``bw`` (bbox width) are per member; ``b_dy`` (``b * dy``) and ``c_dy2``
    (``c * dy**2``) are per bbox row, and ``rowmem`` is each row's member.
    Columns are bbox column offsets, so ``dx = dx_first + j``.

    A pixel is significant only where ``opacity * exp(power) >= MIN_ALPHA``,
    i.e. where ``a*dx**2 + 2*(b*dy)*dx + c*dy**2 + 2*ln(MIN_ALPHA/opacity)
    <= 0``.  Each row solves that quadratic in ``dx`` with the threshold
    lowered by 0.1% and widens the root interval by one column on each
    side, so every significant pixel lies strictly inside its span, with
    margin to spare over rounding.  Rows with ``a <= 0`` or a non-finite
    solve keep the whole bbox row.  A row is empty only where ``a > 0`` and
    the quadratic has no real root, or where ``opacity < MIN_ALPHA``.
    """
    rowbw = np.take(bw.astype(np.float64), rowmem)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inva = 1.0 / a
        inva[~((a > 0) & (a < np.inf))] = np.nan  # no solve: NaN bounds give full rows
        thresh = np.log((0.999 * MIN_ALPHA) / opacity)
        thresh *= 2.0
        center = np.take(inva, rowmem)
        half = c_dy2 + np.take(thresh, rowmem)
        half *= center
        center *= b_dy
        np.negative(center, out=center)  # vertex -b*dy/a
        np.subtract(np.square(center), half, out=half)  # half-width squared
        # a > 0 with no real root (NaN, where a <= 0, is not negative).
        keep = ~(half < 0.0)
        keep &= np.take(~(opacity < MIN_ALPHA), rowmem)
        np.sqrt(half, out=half)
        center -= np.take(dx_first, rowmem)  # vertex as a bbox column offset
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
    return first.astype(np.intp), hi.astype(np.intp)


def _valid_bits(
    cx: np.ndarray,
    cy: np.ndarray,
    radii: np.ndarray,
    bounds: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    tile_size: int,
    subtile_size: int | None,
    stats: RasterStats,
) -> np.ndarray:
    """Valid bit of every pair: its splat overlaps a subtile of its tile.

    ``bounds`` are each pair's tile pixel bounds ``(x0, y0, x1, y1)``.  The
    math is the reference's clamp-the-center test with per-pair subtile
    origins, run on subtile-major ``(subtile, pairs)`` planes so every
    inner loop spans the pairs; an edge tile's subtiles past its bounds are
    masked out, so every pair sees exactly its own tile's subtile grid.
    """
    x0, y0, x1, y1 = bounds
    if subtile_size is None:
        qx = np.minimum(np.maximum(cx, x0), x1)
        qy = np.minimum(np.maximum(cy, y0), y1)
        dist2 = (qx - cx) ** 2 + (qy - cy) ** 2
        return dist2 <= radii**2
    sub = subtile_size
    origin = np.arange(0, tile_size, sub)[:, None]
    sxs = x0 + origin  # (subtiles_x, pairs)
    sys_ = y0 + origin  # (subtiles_y, pairs)
    in_x = sxs < x1
    in_y = sys_ < y1
    qx = np.minimum(np.maximum(cx, sxs), np.minimum(sxs + sub, x1))
    qy = np.minimum(np.maximum(cy, sys_), np.minimum(sys_ + sub, y1))
    dx2 = (qx - cx) ** 2
    dy2 = (qy - cy) ** 2
    r2 = radii * radii
    valid = np.zeros(cx.shape[0], dtype=bool)
    hits = 0
    for j in range(origin.shape[0]):  # one subtile row at a time
        inside = dx2 + dy2[j] <= r2
        inside &= in_x
        inside &= in_y[j]
        hits += np.count_nonzero(inside)
        valid |= inside.any(axis=0)
    # Subtiles per axis: ceil(extent / sub), the in-bounds origins.
    nx = (x1 - x0 + (sub - 1)) // sub
    ny = (y1 - y0 + (sub - 1)) // sub
    stats.subtile_tests += int(nx @ ny)
    stats.subtile_hits += hits
    return valid


def _blend_chunk(
    framebuffer: Framebuffer,
    projected: ProjectedGaussians,
    rows: np.ndarray,
    tile: np.ndarray,
    level: np.ndarray,
    bx: np.ndarray,
    by: np.ndarray,
    bw: np.ndarray,
    bh: np.ndarray,
    stop: np.ndarray,
    crossed: np.ndarray,
    tile_area: np.ndarray,
    termination: float,
    stepped: np.ndarray,
    work: RasterWork,
) -> None:
    """Blend one level-major chunk of members straight into the framebuffer.

    Members are (tile, slot) pairs with a valid bit and a nonempty bbox, in
    level-major order; ``level`` is the slot, ``bx``/``by`` the frame
    pixel of the bbox corner and ``bw``/``bh`` its size.  Every pixel inside
    a significance span (:func:`_row_spans`) is gathered into one flat
    array, member-major and row-major, and alpha is evaluated there.  The
    significant pixels then run through one loop over the chunk's levels
    on the framebuffer's transmittance, and their color through one ordered
    ``np.add.at`` per channel.

    Termination state is per tile and carries across chunks: ``crossed``
    counts the pixels below the threshold, ``tile_area`` is the tile's
    pixel count, and ``stop`` is the slot the tile stops at (its list
    length while it runs).  A tile whose pixels have all crossed stops at
    one past its highest crossing level, which lies in this chunk, so its
    rollback is local: each of its pixels takes back the ``T_in`` of its
    first significant pixel at or past the stop, and those pixels add no
    color.  ``stepped`` marks the levels the loop stepped.

    Pixels a splat does not touch, or touches below ``MIN_ALPHA``, multiply
    transmittance by ``1.0`` and add nothing in the scalar loop — bitwise
    no-ops on the reachable state (transmittance is non-negative and
    accumulated color is never ``-0.0``), which is why the pixels outside
    the spans and the insignificant ones are skipped.
    """
    width = framebuffer.width
    n = rows.shape[0]
    means, conic = projected.means2d, projected.conic
    mx, my = means[rows, 0], means[rows, 1]  # contiguous per-member columns
    ca, cb, cc = conic[rows, 0], conic[rows, 1], conic[rows, 2]
    opac = projected.opacities[rows]

    # The scalar loop evaluates its quadratic per member *axis*, not per
    # pixel: ``dx``/``a * dx**2`` over the bbox columns and
    # ``dy``/``c * dy**2``/``b * dy`` over the bbox rows, broadcast
    # together per pixel.  Reproduce exactly that factoring — the per-axis
    # tables below hold the same floats the scalar broadcast produced, and
    # the per-pixel combine performs the same three ops in the same order
    # — then gather per-pixel operands from the tables.  (Σ bbox widths +
    # heights is ~3x smaller than Σ areas, so the table math runs on far
    # fewer elements than a per-pixel formulation.)  Each axis has one
    # member index, and every table reads the members through it.
    mem = np.arange(n)
    cexc = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(bw, out=cexc[1:])
    rexc = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(bh, out=rexc[1:])
    colbase = bx - cexc[:-1]  # frame column minus column-table entry
    colmem = np.repeat(mem, bw)
    ccol = np.arange(int(cexc[-1]))
    ccol += np.take(colbase, colmem)  # frame column per (member, col)
    dxcat = ccol + 0.5  # == px[col], exactly
    dxcat -= np.take(mx, colmem)  # px[col] - cx
    ucat = np.square(dxcat)  # dx**2 (ndarray ** 2 lowers to square)
    ucat *= np.take(ca, colmem)  # a * dx**2

    rowmem = np.repeat(mem, bh)
    rrow = np.arange(int(rexc[-1]))
    rrow += np.take(by - rexc[:-1], rowmem)  # frame row per (member, row)
    dycat = rrow + 0.5
    dycat -= np.take(my, rowmem)  # py[row] - cy
    vcat = np.square(dycat)
    vcat *= np.take(cc, rowmem)  # c * dy**2
    w1cat = np.take(cb, rowmem)
    w1cat *= dycat  # b * dy

    # Alpha is evaluated only inside each (member, bbox row)'s
    # significance span; the pixels outside it are bitwise no-ops.
    first, span = _row_spans(ca, opac, rowmem, w1cat, vcat, dxcat[cexc[:-1]], bw)

    # Pixels are member-major, row-major: each nonempty (member, row)
    # span is one contiguous run.  Everything per-pixel then derives from
    # the *span ordinal* — recovered as an indicator cumsum over the runs,
    # which needs every run nonempty, so empty rows are dropped first —
    # through per-span tables, which removes the per-pixel integer divmod.
    live = np.flatnonzero(span)  # span ordinal -> bbox row
    rowmem = rowmem[live]
    first = first[live]
    span = span[live]
    rowstarts = np.zeros(span.shape[0] + 1, dtype=np.intp)
    np.cumsum(span, out=rowstarts[1:])
    total = int(rowstarts[-1])
    rowcexc = np.take(cexc, rowmem)  # column-table start of each row
    rowcexc += first
    # Frame pixel minus column-table entry, per row: a pixel's frame index
    # is this plus its column-table index.
    rowpix = rrow[live] * width
    rowpix += np.take(colbase, rowmem)
    vcat = vcat[live]
    w1cat = w1cat[live]
    rowopac = np.take(opac, rowmem)
    work.span_pixels += total

    ridx = _pool("ia", total, np.intp)
    ridx[:] = 0
    ridx[rowstarts[1:-1]] = 1
    np.cumsum(ridx, out=ridx)  # span ordinal per pixel
    # Column-table index per pixel: +1 along a span, and each span's first
    # pixel jumps from the previous span's last entry to its own start.
    cidx = _pool("ib", total, np.intp)
    cidx[:] = 1
    cidx[:1] = rowcexc[:1]
    cidx[rowstarts[1:-1]] = rowcexc[1:] - (rowcexc[:-1] + span[:-1] - 1)
    np.cumsum(cidx, out=cidx)
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

    # The significant pixels, still level-major: span ordinal (sorted),
    # frame pixel and alpha.  They reuse the pooled per-pixel buffers, each
    # once its own contents are spent.
    sel = np.flatnonzero(ok)
    n_sig = sel.shape[0]
    work.significant += n_sig
    if n_sig == 0:
        return
    srow = np.take(ridx, sel, out=_pool("ic", n_sig, np.intp))
    pix = np.take(cidx, sel, out=ridx[:n_sig])
    pix += np.take(rowpix, srow, out=cidx[:n_sig])
    alpha = np.take(alpha, sel, out=opnd[:n_sig])

    # Level segments: each level's first member maps, through its first
    # bbox row, to its first significant pixel.
    cut = np.flatnonzero(level[1:] != level[:-1]) + 1
    cut = np.concatenate(([0], cut))
    edges = np.searchsorted(srow, np.searchsorted(live, rexc[cut]))
    edges = np.append(edges, n_sig)
    full = np.flatnonzero(edges[1:] > edges[:-1])
    stepped[level[cut[full]]] = True

    # Running transmittance, one level at a time.  A level's pixels lie in
    # different tiles, so they are distinct and one scatter updates them
    # all; ``tin`` keeps what each splat saw.
    T = framebuffer.transmittance.reshape(-1)
    tin = opnd2[:n_sig]
    tout = np.subtract(1.0, alpha, out=power[:n_sig])
    for e0, e1 in zip(edges[full].tolist(), edges[full + 1].tolist()):
        p = pix[e0:e1]
        o = tout[e0:e1]
        np.multiply(np.take(T, p, out=tin[e0:e1], mode="clip"), o, out=o)
        T.put(p, o, mode="clip")

    # Exact early termination (see the module docstring).
    smem = np.take(rowmem, srow, out=cidx[:n_sig])  # member of each significant pixel
    cross = np.less(tout, termination, out=ok[:n_sig])
    cross &= np.greater_equal(tin, termination, out=sig[:n_sig])
    if cross.any():
        at = smem[cross]  # member of each crossing
        hits = np.bincount(tile[at], minlength=crossed.shape[0])
        crossed += hits
        cand = np.flatnonzero(hits)
        done = cand[crossed[cand] == tile_area[cand]]
        if done.size:
            top = np.zeros_like(stop)
            np.maximum.at(top, tile[at], level[at])
            stop[done] = top[done] + 1
            ended = np.zeros(stop.shape[0], dtype=bool)
            ended[done] = True
            et = tile[smem]
            drop = ended[et] & (level[smem] >= stop[et])
            if drop.any():
                d = np.flatnonzero(drop)
                back, firsts = np.unique(pix[d], return_index=True)
                T[back] = tin[d[firsts]]
                keep = ~drop
                smem, pix, alpha, tin = smem[keep], pix[keep], alpha[keep], tin[keep]

    # color += T_in * alpha * c.  ufunc.at applies updates strictly in
    # index order, so a pixel hit by several splats accumulates
    # front-to-back exactly like the scalar loop; channels are independent
    # bins.
    wgt = tin
    wgt *= alpha
    bins = pix
    bins *= 3
    vals = tout[: smem.shape[0]]
    C = framebuffer.color.reshape(-1)
    for plane in projected.colors[rows].T.copy():  # contiguous member planes
        np.take(plane, smem, out=vals)
        vals *= wgt
        np.add.at(C, bins, vals)
        bins += 1


def rasterize(
    sorted_tiles: SortedTiles,
    projected: ProjectedGaussians,
    grid: TileGrid,
    background: tuple[float, float, float] = (0.0, 0.0, 0.0),
    subtile_size: int | None = NEO_SUBTILE_SIZE,
    termination: float = TERMINATION_THRESHOLD,
) -> RasterResult:
    """Rasterize a full frame in one level-major pass.

    Every (tile, slot) pair is taken slot-major, tiles ascending within a
    slot, and blended straight into the framebuffer (see the module
    docstring).  Output — image, ``valid_bits``, and every
    :class:`RasterStats` counter — is bit-identical to the frozen scalar
    reference :func:`repro.pipeline.reference.rasterize`.
    """
    framebuffer = Framebuffer(width=grid.width, height=grid.height, background=background)
    result = RasterResult(image=np.empty(0))
    stats = result.stats
    stream = sorted_tiles.stream
    if stream.num_pairs == 0:
        result.image = framebuffer.finalize()
        return result

    # Level-major pair order: one stable radix argsort of the slot.
    counts = stream.counts()
    tile = stream.tile_of()
    slot = np.arange(stream.num_pairs) - stream.offsets[tile]
    order = np.argsort(slot.astype(np.min_scalar_type(counts.max())), kind="stable")
    tile = tile[order]
    slot = slot[order]
    rows = stream.values[order]

    ts = grid.tile_size
    t = np.arange(stream.num_tiles)
    tx0 = t % grid.tiles_x * ts
    ty0 = t // grid.tiles_x * ts
    tx1 = np.minimum(tx0 + ts, grid.width)
    ty1 = np.minimum(ty0 + ts, grid.height)
    x0, y0, x1, y1 = tx0[tile], ty0[tile], tx1[tile], ty1[tile]
    means = projected.means2d[rows]
    cx, cy = means[:, 0], means[:, 1]
    radii = projected.radii[rows]
    valid = _valid_bits(cx, cy, radii, (x0, y0, x1, y1), ts, subtile_size, stats)
    in_stream = np.empty_like(valid)
    in_stream[order] = valid
    off = stream.offsets.tolist()
    for k in stream.nonempty().tolist():
        result.valid_bits[k] = in_stream[off[k] : off[k + 1]]

    # Per-pair pixel bboxes, clipped to the tile — the same integers the
    # scalar loop derives one splat at a time.
    gx0 = np.maximum(np.floor(cx - radii).astype(np.int64) - x0, 0)
    gx1 = np.minimum(np.ceil(cx + radii).astype(np.int64) - x0 + 1, x1 - x0)
    gy0 = np.maximum(np.floor(cy - radii).astype(np.int64) - y0, 0)
    gy1 = np.minimum(np.ceil(cy + radii).astype(np.int64) - y0 + 1, y1 - y0)
    bw, bh = gx1 - gx0, gy1 - gy0
    area = np.where(valid & (bw > 0) & (bh > 0), bw * bh, 0)
    bx = gx0 + x0  # frame pixel of the bbox corner
    by = gy0 + y0

    # Members (pairs that blend at all), cut into level-major chunks.
    member = np.flatnonzero(area)
    m_area = area[member]
    window = (np.cumsum(m_area) - m_area) // _CHUNK_BBOX_PIXELS
    stop = counts.copy()
    if 1.0 < termination:
        stop[:] = 0  # every pixel starts below the threshold
    crossed = np.zeros_like(counts)
    tile_area = (tx1 - tx0) * (ty1 - ty0)
    stepped = np.zeros(int(counts.max()), dtype=bool)
    for part in np.split(member, np.flatnonzero(np.diff(window)) + 1):
        if np.any(stop < counts):  # skip the members of stopped tiles
            part = part[slot[part] < stop[tile[part]]]
            if part.size == 0:
                continue
        result.work.bbox_pixels += int(area[part].sum())
        _blend_chunk(
            framebuffer, projected,
            rows[part], tile[part], slot[part],
            bx[part], by[part], bw[part], bh[part],
            stop, crossed, tile_area, termination, stepped, result.work,
        )

    # Counters over exactly the pairs the scalar loop walked: slots before
    # each tile's stop.
    walked = slot < stop[tile]
    stats.gaussians_processed += int(np.count_nonzero(valid & walked))
    stats.blend_ops += int(area[walked].sum())
    stats.early_terminated_tiles += int(np.count_nonzero(stop < counts))
    result.work.levels = int(np.count_nonzero(stepped))
    result.image = framebuffer.finalize()
    return result
