"""Bit-identity pins for the shared tile-pair kernel and workload extraction.

:func:`repro.pipeline.tiling.pair_lists` (the expansion of the per-row kept
intervals of :func:`repro.pipeline.tiling.row_intervals`) must equal the
frozen per-candidate expansion :func:`repro.hw.reference.scalar_pair_lists`
bit for bit — tiles, rows, dtypes and order — and every
:class:`FrameWorkload` field must equal the frozen
:func:`repro.hw.reference.scalar_frame_workload` (per-candidate pairs, int64
grouping, two-membership churn).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hw.reference as hw_ref
import repro.hw.workload as workload_mod
import repro.pipeline.tiling as tiling_mod
from repro.experiments import runner
from repro.experiments.engine import SimJob, evaluate_cell, execute_cells
from repro.hw.workload import FrameGeometry, WorkloadModel
from repro.pipeline.projection import project_gaussians
from repro.pipeline.tiling import (
    TileGrid,
    TileStream,
    assign_to_tiles,
    pair_lists,
    row_intervals,
)


@pytest.fixture(scope="module")
def workload_model():
    return WorkloadModel.from_scene("family", num_frames=3, num_gaussians=1200)


#: The pins of ``tests/test_stream_reference.py`` plus every simulate config
#: (Neo tiles at 64 px; GSCore and Orin at 16 px).
CONFIGS = [
    ((160, 90), 32),
    ((320, 180), 64),
    ("hd", 16),
    ("hd", 64),
    ("qhd", 16),
    ("qhd", 64),
]


def assert_pairs_identical(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.int64
        np.testing.assert_array_equal(g, w)


class TestKernelMatchesScalar:
    @pytest.mark.parametrize("resolution", ["hd", "qhd"])
    @pytest.mark.parametrize("tile_size", [8, 16, 64])
    def test_captured_frames(self, workload_model, resolution, tile_size):
        width, height = workload_model._resolve(resolution)
        for frame in range(workload_model.num_frames):
            means2d, radii = workload_model.scaled_geometry(frame, resolution)
            args = (means2d, radii, width, height, tile_size)
            assert_pairs_identical(pair_lists(*args), hw_ref.scalar_pair_lists(*args))

    @pytest.mark.parametrize(
        "means,radii",
        [
            # Fully off-screen on every side, and just past the far edges.
            ([[-50, -50], [200, 40], [40, 200], [64, 10], [10, 64]], [2, 3, 3, 0.0, 0.0]),
            # Zero radius: on a tile corner, an edge, inside, and on the image edge.
            ([[16, 16], [16, 5], [5, 5], [0, 0], [63.999, 63.999]], [0.0] * 5),
            # Straddling tile edges and the image border; a splat larger than the image.
            ([[15.5, 16.5], [-1, 30], [62, 62], [32, 32], [31.9, 48.1]], [1, 2, 5, 100, 0.5]),
        ],
    )
    @pytest.mark.parametrize("tile_size", [8, 16, 64])
    def test_edge_cases(self, means, radii, tile_size):
        args = (np.asarray(means, dtype=np.float64), np.asarray(radii, dtype=np.float64))
        for width, height in [(64, 64), (60, 50)]:
            got = pair_lists(*args, width, height, tile_size)
            want = hw_ref.scalar_pair_lists(*args, width, height, tile_size)
            assert_pairs_identical(got, want)

    def test_empty_and_all_offscreen(self):
        for means, radii in [(np.zeros((0, 2)), np.zeros(0)), ([[-9.0, -9.0]], [1.0])]:
            got = pair_lists(np.asarray(means), np.asarray(radii), 64, 64, 16)
            assert_pairs_identical(got, (np.empty(0, np.int64), np.empty(0, np.int64)))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 40),
        st.sampled_from([4, 8, 16, 64]),
        st.integers(16, 200),
        st.integers(16, 200),
        st.floats(0.0, 60.0),
    )
    def test_random_geometry(self, seed, count, tile_size, width, height, max_radius):
        rng = np.random.default_rng(seed)
        means = rng.uniform(-0.3, 1.3, size=(count, 2)) * [width, height]
        radii = rng.uniform(0.0, max_radius, size=count)
        # Snap some centers onto tile boundaries so ties get exercised.
        snap = rng.random(count) < 0.3
        means[snap] = np.round(means[snap] / tile_size) * tile_size
        args = (means, radii, width, height, tile_size)
        assert_pairs_identical(pair_lists(*args), hw_ref.scalar_pair_lists(*args))


class TestAssignToTiles:
    @pytest.mark.parametrize("tile_size", [8, 16, 64])
    def test_stream_equals_scalar_grouping(self, small_scene, camera, tile_size):
        proj = project_gaussians(small_scene, camera)
        grid = TileGrid.for_camera(camera, tile_size)
        stream = assign_to_tiles(proj, grid).stream
        tiles, rows = hw_ref.scalar_pair_lists(
            proj.means2d, proj.radii, camera.width, camera.height, tile_size
        )
        order = np.argsort(tiles, kind="stable")
        np.testing.assert_array_equal(stream.values, rows[order])
        np.testing.assert_array_equal(
            stream.offsets, np.searchsorted(tiles[order], np.arange(grid.num_tiles + 1))
        )


class TestFromPairsGrouping:
    @pytest.mark.parametrize("num_tiles", [1, 300, 1 << 16, (1 << 16) + 1, 200_000])
    def test_matches_int64_stable_argsort(self, num_tiles):
        rng = np.random.default_rng(num_tiles)
        tiles = rng.integers(0, num_tiles, size=5000)
        tiles[:3] = [0, num_tiles - 1, num_tiles - 1]
        values = np.arange(5000)
        stream = TileStream.from_pairs(tiles, values, num_tiles)
        order = np.argsort(tiles, kind="stable")
        np.testing.assert_array_equal(stream.values, values[order])
        np.testing.assert_array_equal(
            stream.offsets, np.searchsorted(tiles[order], np.arange(num_tiles + 1))
        )


class TestFrameWorkloadPin:
    @pytest.mark.parametrize("resolution,tile_size", CONFIGS)
    def test_every_field_matches_scalar(self, workload_model, resolution, tile_size):
        for frame in range(workload_model.num_frames):
            got = workload_model.frame_workload(frame, resolution, tile_size)
            want = hw_ref.scalar_frame_workload(workload_model, frame, resolution, tile_size)
            # Churn is counted on first read; compare it on its own so no
            # equality shortcut can pass without counting it.
            assert got.incoming_pairs == want.incoming_pairs
            assert got.outgoing_pairs == want.outgoing_pairs
            assert got == want

    def test_shared_config_is_extracted_once(self, monkeypatch):
        wm = WorkloadModel.from_scene("family", num_frames=4, num_gaussians=600)
        calls = {"runs": 0, "churn": 0}
        kernel, churn = workload_mod.row_intervals, workload_mod._churn_counts

        def counting_kernel(*args):
            calls["runs"] += 1
            return kernel(*args)

        def counting_churn(*args):
            calls["churn"] += 1
            return churn(*args)

        monkeypatch.setattr(workload_mod, "row_intervals", counting_kernel)
        monkeypatch.setattr(workload_mod, "_churn_counts", counting_churn)
        first = wm.sequence_workloads("hd", 16)
        assert calls == {"runs": 4, "churn": 0}
        # The first read counts churn, once per frame after the first.
        churn_pairs = [(w.incoming_pairs, w.outgoing_pairs) for w in first]
        assert calls == {"runs": 4, "churn": 3}
        assert [(w.incoming_pairs, w.outgoing_pairs) for w in first] == churn_pairs
        second = wm.sequence_workloads(wm._resolve("hd"), 16)
        assert second == first
        assert calls == {"runs": 4, "churn": 3}
        # Fig. 6 reads the same cached runs.
        wm.shared_fraction_per_tile(2, "hd", 16)
        assert calls == {"runs": 4, "churn": 3}
        assert second == hw_ref.scalar_sequence_workloads(wm, "hd", 16)
        assert calls == {"runs": 4, "churn": 3}


class TestChurnOnFirstRead:
    def test_only_models_that_read_churn_count_it(self, monkeypatch):
        calls = []
        churn = workload_mod._churn_counts

        def counting_churn(*args):
            calls.append(args)
            return churn(*args)

        monkeypatch.setattr(workload_mod, "_churn_counts", counting_churn)
        frames = 3
        cells = {
            system: SimJob.make(system, "family", "hd", frames=frames)
            for system in ("gscore", "orin", "neo")
        }
        runner._workload_model_cached.cache_clear()  # a fresh capture
        cells["gscore"].simulate()
        cells["orin"].simulate()
        assert calls == []
        cells["neo"].simulate()
        assert len(calls) == frames - 1

        wm = runner.get_workload_model(*cells["neo"].capture_key())
        for system in ("gscore", "neo"):
            _, tile = runner.build_system_model(system)
            for frame, got in enumerate(wm.sequence_workloads("hd", tile)):
                want = hw_ref.scalar_frame_workload(wm, frame, "hd", tile)
                assert got.incoming_pairs == want.incoming_pairs
                assert got.outgoing_pairs == want.outgoing_pairs
        # Neo's churn was kept; GSCore's was counted by this read alone.
        assert len(calls) == 2 * (frames - 1)


class TestIdMajorKeys:
    @pytest.mark.parametrize("scene", ["family", "train", "playground"])
    @pytest.mark.parametrize("speed", [1.0, 4.0])
    def test_strictly_ascending_on_captured_frames(self, scene, speed):
        wm = WorkloadModel.from_scene(scene, num_frames=3, speed=speed, num_gaussians=1200)
        for resolution in ("hd", "fhd", "qhd"):
            width, height = wm._resolve(resolution)
            for tile_size in (8, 16, 64):
                for frame in range(wm.num_frames):
                    means2d, radii = wm.scaled_geometry(frame, resolution)
                    tiles, rows = pair_lists(means2d, radii, width, height, tile_size)
                    pair_rows, keys = wm._pairs(frame, width, height, tile_size)
                    assert keys.shape[0] > 0
                    assert np.all(keys[1:] > keys[:-1])
                    np.testing.assert_array_equal(pair_rows, rows)
                    np.testing.assert_array_equal(keys & 0xFFFFFFFF, tiles)
                    np.testing.assert_array_equal(keys >> 32, wm.frames[frame].ids[rows])
                    # Run keys ``ID << 32 | tile row`` ascend too: churn
                    # matches them with one searchsorted.
                    run_keys = wm._runs(frame, width, height, tile_size).keys
                    assert np.all(run_keys[1:] > run_keys[:-1])


class TestNoTileGrouping:
    def test_workloads_and_shared_fraction_skip_the_stream(self, monkeypatch):
        # Counting reads the cached row intervals: it neither expands them
        # into pairs nor groups pairs by tile.
        wm = WorkloadModel.from_scene("family", num_frames=3, num_gaussians=900)

        def refuse(*args, **kwargs):
            raise AssertionError("workload extraction built or grouped pairs")

        monkeypatch.setattr(TileStream, "from_pairs", refuse)
        monkeypatch.setattr(workload_mod, "pair_lists", refuse)
        monkeypatch.setattr(tiling_mod.RowIntervals, "pairs", refuse)
        for resolution, tile_size in CONFIGS:
            got = wm.sequence_workloads(resolution, tile_size)
            assert got == hw_ref.scalar_sequence_workloads(wm, resolution, tile_size)
            for frame in range(1, wm.num_frames):
                np.testing.assert_array_equal(
                    wm.shared_fraction_per_tile(frame, resolution, tile_size),
                    hw_ref.scalar_shared_fraction_per_tile(wm, frame, resolution, tile_size),
                )


#: Integer Pythagorean triples ``(a, b, c)``: a center ``a`` and ``b`` pixels
#: from a tile corner with radius ``c`` makes ``r^2 - dy^2`` exactly ``dx^2``.
TRIPLES = [(0, 0, 0), (3, 4, 5), (5, 12, 13), (6, 8, 10), (8, 15, 17), (20, 21, 29)]


@st.composite
def adversarial_geometry(draw):
    """Splats placed where the kept-interval ends are hardest to get exactly.

    Centers sit on tile edges, on and just past the image edges, outside
    the image with radii that still reach it, and at integer offsets from a
    tile corner with radii that make the corner test an exact tie; radii
    include zero and whole tiles.  Widths and heights need not be multiples
    of the tile.
    """
    tile = draw(st.sampled_from([3, 4, 7, 8, 16, 64]))
    width = draw(st.integers(1, 5 * tile + 7))
    height = draw(st.integers(1, 5 * tile + 7))

    def coordinate(extent):
        edge = draw(st.integers(-2, extent // tile + 2)) * tile
        return draw(
            st.sampled_from(
                [
                    float(edge),
                    np.nextafter(float(edge), -np.inf),
                    0.0,
                    float(extent),
                    np.nextafter(float(extent), -np.inf),
                    float(-tile),
                    float(extent + tile),
                    draw(st.floats(-2.0 * tile, extent + 2.0 * tile)),
                ]
            )
        )

    means, radii = [], []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.booleans()):
            a, b, c = draw(st.sampled_from(TRIPLES))
            if draw(st.booleans()):
                a, b = b, a
            corner_x = draw(st.integers(0, width // tile + 1)) * tile
            corner_y = draw(st.integers(0, height // tile + 1)) * tile
            dx, dy = draw(st.sampled_from([a, -a])), draw(st.sampled_from([b, -b]))
            means.append([corner_x + dx, corner_y + dy])
            radii.append(float(c))
        else:
            means.append([coordinate(width), coordinate(height)])
            radii.append(
                draw(
                    st.one_of(
                        st.just(0.0),
                        st.integers(0, 4).map(lambda k: float(k * tile)),
                        st.floats(0.0, 3.0 * tile),
                    )
                )
            )
    return np.asarray(means, dtype=np.float64), np.asarray(radii), width, height, tile


def kernel_runs(geometry):
    """The kernel's runs of ``geometry`` as the workload model keys them (ID = row)."""
    runs = row_intervals(*geometry)
    return workload_mod._Runs(keys=runs.rows << 32 | runs.tile_rows, lo=runs.lo, hi=runs.hi)


def assert_runs_match_scalar(geometry):
    """``pair_lists`` and every run's ``[lo, hi]`` match the per-candidate kernel.

    Halving the runs once and twice matches the kernel at twice and four
    times the tile.
    """
    # (a) The expansion equals the per-candidate kernel bit for bit.
    assert_pairs_identical(pair_lists(*geometry), hw_ref.scalar_pair_lists(*geometry))

    # (b) Each run's kept columns, per the per-candidate kernel, are one
    # interval, and it is the run's [lo, hi].
    _, _, width, height, tile = geometry
    tiles, rows = hw_ref.scalar_pair_lists(*geometry)
    tile_rows, cols = np.divmod(tiles, -(-width // tile))
    run_key = rows * (-(-height // tile)) + tile_rows
    _, first, counts = np.unique(run_key, return_index=True, return_counts=True)
    last = first + counts - 1
    np.testing.assert_array_equal(cols[last] - cols[first] + 1, counts)
    runs = row_intervals(*geometry)
    for field in (runs.rows, runs.tile_rows, runs.lo, runs.hi):
        assert field.dtype == np.int64
    np.testing.assert_array_equal(runs.rows, rows[first])
    np.testing.assert_array_equal(runs.tile_rows, tile_rows[first])
    np.testing.assert_array_equal(runs.lo, cols[first])
    np.testing.assert_array_equal(runs.hi, cols[last])

    # (c) Halving the runs is the kernel at twice the tile.
    means, radii = geometry[:2]
    halved = kernel_runs(geometry)
    for scale in (2, 4):
        halved = halved.halve()
        want = kernel_runs((means, radii, width, height, scale * tile))
        for got, expected in zip(
            (halved.keys, halved.lo, halved.hi), (want.keys, want.lo, want.hi)
        ):
            assert got.dtype == expected.dtype == np.int64
            np.testing.assert_array_equal(got, expected)


def _below(v):
    return float(np.nextafter(v, -np.inf))


def _above(v):
    return float(np.nextafter(v, np.inf))


#: Splats ``(cx, cy, r)`` on a 96x80 image with 16 px tiles, placed where
#: the check of the closed-form ends is decided by one rounding or one tie.
EDGE_CASES = {
    # cx - half lands on a tile edge with dy = 0; the tie column is outside
    # the bbox.  cx + half lands on one too, and that tie column is kept.
    "ends_on_tile_edges": [(20.0, 8.0, 4.0), (12.0, 8.0, 4.0), (44.0, 40.0, 12.0)],
    # The same with dy = 4 and r = 5, so the tie lies inside the bbox: on
    # the column beyond lo, which only the outer-neighbour test catches,
    # and on hi itself.
    "pythagorean_tie_beyond_an_end": [(19.0, 12.0, 5.0), (29.0, 12.0, 5.0)],
    # cy + r on a row's top edge puts that row in the bbox with dy^2 == r^2:
    # it keeps the center column alone.  With r one ulp short, cy + r still
    # rounds onto the edge, but dy^2 > r^2 and the row keeps nothing.
    "dy2_equals_rr": [(40.0, 12.0, 4.0), (8.0, 44.0, 4.0)],
    "dy2_one_ulp_above_rr": [(40.0, 12.0, _below(4.0)), (8.0, 44.0, _below(4.0))],
    # Centers on the image's left and right edges, and one ulp inside each.
    "cx_on_image_edges": [
        (0.0, 30.0, 10.0),
        (_above(0.0), 30.0, 10.0),
        (96.0, 30.0, 10.0),
        (_below(96.0), 30.0, 10.0),
    ],
    # Centers outside the image on every side, with radii that reach it.
    "centers_outside": [
        (-6.0, 30.0, 9.0),
        (-16.0, 30.0, 16.0),
        (105.0, 30.0, 12.0),
        (40.0, -7.0, 10.0),
        (40.0, 88.0, 9.0),
        (-5.0, -5.0, 8.0),
        (100.0, 84.0, 6.0),
    ],
    # Zero radius on a tile corner, an edge and inside a tile.
    "zero_radius": [(32.0, 32.0, 0.0), (32.0, 40.0, 0.0), (40.0, 40.0, 0.0)],
}


class TestRowIntervals:
    @settings(max_examples=300, deadline=None)
    @given(adversarial_geometry())
    def test_adversarial_geometry(self, geometry):
        assert_runs_match_scalar(geometry)

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_check_edges(self, case):
        splats = np.asarray(EDGE_CASES[case], dtype=np.float64)
        assert_runs_match_scalar((splats[:, :2], splats[:, 2], 96, 80, 16))

    @pytest.mark.parametrize("width", [84, 90, 95])
    def test_last_column_narrower_than_the_tile(self, width):
        # The last column spans [80, width); centers in it, on its far edge,
        # and past it.
        cx = [81.0, 88.0, float(width), _below(float(width)), width + 3.0, 79.5]
        splats = [(x, y, r) for x in cx for y in (8.0, 24.0) for r in (3.0, 9.0, 16.0)]
        splats = np.asarray(splats)
        assert_runs_match_scalar((splats[:, :2], splats[:, 2], width, 40, 16))

    def test_only_runs_that_fail_the_check_are_searched(self, monkeypatch):
        searched = []
        search = tiling_mod._search

        def counting_search(cx, *args):
            searched.append(cx.shape[0])
            return search(cx, *args)

        monkeypatch.setattr(tiling_mod, "_search", counting_search)
        # A center in the image and one left of it, away from every tie:
        # the check settles all their runs.
        row_intervals(np.array([[40.0, 40.0], [-3.0, 20.0]]), np.array([13.0, 7.5]), 96, 80, 16)
        assert searched == []
        # Of the two tie splats' four runs, only the one with the tie beyond
        # lo (the first splat's second tile row) fails the check.
        splats = np.asarray(EDGE_CASES["pythagorean_tie_beyond_an_end"])
        runs = row_intervals(splats[:, :2], splats[:, 2], 96, 80, 16)
        assert searched == [1]
        assert runs.lo[(runs.rows == 0) & (runs.tile_rows == 1)].tolist() == [0]


#: How a Gaussian's kept interval in its center row moves between frames.
RELATIONS = ["disjoint", "touching", "nested", "partial", "same", "gone", "new"]


class TestRunChurn:
    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([4, 8, 16]),
        st.lists(
            st.tuples(
                st.sampled_from(RELATIONS),
                st.integers(0, 9),
                st.integers(0, 4),
                st.integers(0, 5),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=25,
        ),
    )
    def test_two_frame_churn_matches_scalar(self, tile, splats):
        # Each splat covers columns [a, a + span] of its center row in the
        # previous frame and a related interval in the current one; its
        # other rows' intervals move with it.
        width, height = 20 * tile + tile // 2, 6 * tile + 1
        frames = ([], [])
        for gid, (relation, a, span, row, shift) in enumerate(splats):
            b = a + span
            moved = {
                "disjoint": (b + 2 + shift, b + 2 + shift + span),
                "touching": (b + 1, b + 1 + shift),
                "nested": (a + min(shift, span // 2), b - min(shift, span // 2)),
                "partial": (a + min(shift, span), b + shift + 1),
                "same": (a, b),
            }
            for f, (lo, hi) in enumerate([(a, b), moved.get(relation, (a, b))]):
                if (relation, f) in (("gone", 1), ("new", 0)):
                    continue
                center = [(lo + hi + 1) * tile / 2, (row + 0.5) * tile]
                frames[f].append((gid, center, (hi - lo + 1) * tile / 2 - tile / 4))
        geometry = []
        for splat in frames:
            ids = np.array([gid for gid, _, _ in splat], dtype=np.int64)
            means = np.array([c for _, c, _ in splat], dtype=np.float64).reshape(-1, 2)
            radii = np.array([r for _, _, r in splat], dtype=np.float64)
            geometry.append(FrameGeometry(ids, means, radii, np.ones(ids.shape[0])))
        wm = WorkloadModel(geometry, width, height, count_scale=1.0, functional_gaussians=99)
        config = ((width, height), tile)
        for frame in (0, 1):
            got = wm.frame_workload(frame, *config)
            assert got == hw_ref.scalar_frame_workload(wm, frame, *config)
        if frames[0]:
            np.testing.assert_array_equal(
                wm.shared_fraction_per_tile(1, *config),
                hw_ref.scalar_shared_fraction_per_tile(wm, 1, *config),
            )


#: Every (resolution, tile) a request order can mix: HD at 16, 32 and 64 px
#: is QHD at 32, 64 and 128 px, so the eight configurations span five steps.
HALVING_CONFIGS = [(res, tile) for res in ("hd", "qhd") for tile in (16, 32, 64, 128)]


def fresh_model(wm: WorkloadModel) -> WorkloadModel:
    """A model over ``wm``'s captured frames with empty caches."""
    return WorkloadModel(
        wm.frames, wm.capture_width, wm.capture_height, wm.count_scale,
        wm.functional_gaussians,
    )


class TestDerivedConfigurations:
    @pytest.fixture(scope="class")
    def pinned(self, workload_model):
        return {
            config: [
                hw_ref.scalar_frame_workload(workload_model, frame, *config)
                for frame in range(workload_model.num_frames)
            ]
            for config in HALVING_CONFIGS
        }

    def test_every_request_order_matches_scalar(self, workload_model, pinned):
        # Which runs are derived, and from which, depends only on the order
        # in which the five steps are first asked for.  Each order asks for
        # both configurations of every step.
        steps = {}
        for config in HALVING_CONFIGS:
            width, height = workload_model._resolve(config[0])
            steps.setdefault(workload_mod._grain(width, height, config[1]), []).append(config)
        assert len(steps) == 5
        for order in itertools.permutations(steps.values()):
            wm = fresh_model(workload_model)
            for config in itertools.chain.from_iterable(order):
                for frame, want in enumerate(pinned[config]):
                    got = wm.frame_workload(frame, *config)
                    assert got.incoming_pairs == want.incoming_pairs
                    assert got.outgoing_pairs == want.outgoing_pairs
                    assert got == want, (order, config, frame)

    def test_coarser_configurations_derive_from_the_finest(self, workload_model, monkeypatch):
        calls = []
        kernel = workload_mod.row_intervals

        def counting_kernel(*args):
            calls.append(args[2:])
            return kernel(*args)

        monkeypatch.setattr(workload_mod, "row_intervals", counting_kernel)
        wm = fresh_model(workload_model)
        frames = wm.num_frames
        for config in [("qhd", 16), ("hd", 16), ("qhd", 64), ("hd", 64), ("hd", 32)]:
            wm.sequence_workloads(*config)
        assert calls == [(2560, 1440, 16)] * frames
        # A coarser configuration asked for first has nothing to derive from.
        calls.clear()
        wm = fresh_model(workload_model)
        wm.sequence_workloads("hd", 64)
        wm.sequence_workloads("qhd", 64)
        assert calls == [(1280, 720, 64)] * frames + [(2560, 1440, 64)] * frames
        # Fig. 7's pairs expand the cached runs: no second kernel call.
        calls.clear()
        wm.order_differences(1, "qhd", 64)
        wm.frame_stream(0, "hd", 32)
        assert calls == []

    def test_simulate_batch_runs_the_kernel_once_per_frame(self, monkeypatch):
        calls = []
        kernel = workload_mod.row_intervals
        tile_counts = workload_mod._Runs.tile_counts

        def counting_kernel(*args):
            calls.append(args[2:])
            return kernel(*args)

        # Nonempty tiles pool up the family from the finest configuration,
        # so only its runs are counted per tile.
        counted = []

        def counting_tile_counts(runs, grid):
            counted.append((grid.width, grid.height, grid.tile_size))
            return tile_counts(runs, grid)

        frames = 3
        # The perfbench ``simulate`` op's cells, in its order: Neo's 64 px
        # cells come first, so without the engine's order nothing derives.
        cells = [
            SimJob.make(system, "family", resolution, frames=frames, speed=1.1)
            for system in ("neo", "gscore", "orin")
            for resolution in ("hd", "qhd")
        ]
        runner._workload_model_cached.cache_clear()
        want = [cell.simulate() for cell in cells]
        runner._workload_model_cached.cache_clear()
        monkeypatch.setattr(workload_mod, "row_intervals", counting_kernel)
        monkeypatch.setattr(workload_mod._Runs, "tile_counts", counting_tile_counts)
        batch = execute_cells(cells, evaluate_cell, jobs=1, cache=None)
        assert calls == [(2560, 1440, 16)] * frames
        assert counted == [(2560, 1440, 16)] * frames
        assert batch.values == want

    @pytest.mark.parametrize("width", [1280, 1040])
    def test_odd_grids_pool_with_empty_padding(self, workload_model, width, monkeypatch):
        # 720 px at 16, 32 and 64 px tiles: 45, 23 and 12 tile rows.  At
        # 1040 px the columns are odd too: 65, 33 and 17.
        counted = []
        tile_counts = workload_mod._Runs.tile_counts

        def counting_tile_counts(runs, grid):
            counted.append(grid.tile_size)
            return tile_counts(runs, grid)

        want = {
            tile: hw_ref.scalar_sequence_workloads(workload_model, (width, 720), tile)
            for tile in (16, 32, 64)
        }
        monkeypatch.setattr(workload_mod._Runs, "tile_counts", counting_tile_counts)
        wm = fresh_model(workload_model)
        for tile in (16, 32, 64):
            assert TileGrid(width, 720, tile).tiles_y == {16: 45, 32: 23, 64: 12}[tile]
            assert wm.sequence_workloads((width, 720), tile) == want[tile]
        assert counted == [16] * wm.num_frames
        assert TileGrid(1040, 720, 16).tiles_x == 65

    def test_frame_with_no_runs(self):
        # Frame 0 covers no tile: its mask pools to all False, and frame
        # 1's churn against it is all incoming.
        splat = (np.array([3], dtype=np.int64), np.array([[100.0, 60.0]]), np.array([40.0]))
        empty = FrameGeometry(
            np.empty(0, dtype=np.int64), np.empty((0, 2)), np.empty(0), np.empty(0)
        )
        frames = [empty, FrameGeometry(*splat, np.ones(1))]
        wm = WorkloadModel(frames, 480, 270, count_scale=2.0, functional_gaussians=10)
        for tile in (16, 32, 64):
            for frame in (0, 1):
                got = wm.frame_workload(frame, "hd", tile)
                assert got == hw_ref.scalar_frame_workload(wm, frame, "hd", tile)
            assert wm.frame_workload(0, "hd", tile).nonempty_tiles == 0
            assert wm.frame_workload(1, "hd", tile).incoming_pairs == wm.frame_workload(
                1, "hd", tile
            ).pairs
