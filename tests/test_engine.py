"""Tests for the plan/execute experiment engine.

Covers the SimJob and QualityJob value objects, the shared execute_cells core (dedup, cache
probe, parallel fan-out), cross-figure cell dedup, serial-vs-parallel
byte-identical artifacts, the golden all-17-experiments in-process vs engine
equivalence, and the `repro experiments` CLI surface.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
import pytest

from repro.cli import main
from repro.experiments import (
    ExperimentEngine,
    ExperimentResult,
    QualityJob,
    SimJob,
    execute_cells,
    execute_plan,
    experiment_descriptions,
    list_experiments,
)
from repro.experiments import (
    bandwidth_sweep,
    fig03,
    fig04,
    fig05,
    fig06,
    fig07,
    fig09,
    fig10,
    fig15,
    fig16,
    fig17,
    fig18,
    fig19,
    recovery,
    table2,
    table3,
    table4,
)
from repro.experiments import runner
from repro.runtime import ResultCache, stable_key

FAST_SCENES = ("family", "horse")


# ----------------------------------------------------------------------
# SimJob
# ----------------------------------------------------------------------
class TestSimJob:
    def test_equal_cells_collapse(self):
        a = SimJob("gscore", "family", "qhd", frames=4, cores=4)
        b = SimJob("gscore", "family", "qhd", frames=4, cores=4.0, speed=1)
        assert a == b
        assert len({a, b}) == 1

    def test_resolved_pins_config_frames(self):
        job = SimJob("neo", "family", "hd")
        assert job.resolved(5).frames == 5
        assert job.resolved().frames == 12  # DEFAULT_FRAMES
        pinned = SimJob("neo", "family", "hd", frames=7)
        assert pinned.resolved(5) is pinned

    def test_cache_spec_requires_resolved_frames(self):
        with pytest.raises(ValueError):
            SimJob("neo", "family", "hd").cache_spec()

    def test_capture_fields_default_to_the_figure_capture(self):
        job = SimJob("neo", "family", "hd", frames=3)
        assert job.capture_key() == runner.capture_key("family", 3)
        assert runner.get_workload_model(*job.capture_key()) is runner.get_workload_model(
            "family", 3, 1.0
        )

    def test_capture_fields_normalize(self):
        a = SimJob("neo", "family", "hd", frames=3, num_gaussians=np.int64(128),
                   capture_width=np.int32(160))
        b = SimJob("neo", "family", "hd", frames=3, num_gaussians=128, capture_width=160)
        assert a == b
        assert stable_key(a.cache_spec()[1]) == stable_key(b.cache_spec()[1])

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"trajectory": "spiral"}, "unknown trajectory"),
            ({"trajectory": ["orbit"]}, "unknown trajectory"),
            ({"num_gaussians": 4}, "num_gaussians"),
            ({"num_gaussians": 128.0}, "num_gaussians"),
            ({"num_gaussians": True}, "num_gaussians"),
            ({"capture_width": 8}, "capture_width"),
            ({"capture_height": 90.5}, "capture_height"),
            ({"capture_width": None}, "capture_width"),
            ({"speed": float("nan")}, "speed"),
            ({"scene": "atlantis"}, "unknown scene"),
        ],
    )
    def test_rejects_bad_capture_fields(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            SimJob(**{"system": "neo", "scene": "family", "resolution": "hd", **overrides})


# ----------------------------------------------------------------------
# QualityJob
# ----------------------------------------------------------------------
QUALITY = {
    "scene": "family", "num_gaussians": 128, "trajectory": "orbit", "speed": 1.0,
    "strategy": "neo", "frames": 2, "width": 48, "height": 32,
}


class TestQualityJob:
    def test_equal_cells_collapse(self):
        a = QualityJob(**QUALITY)
        b = QualityJob(**{**QUALITY, "speed": 1, "num_gaussians": np.int64(128)})
        assert a == b
        assert stable_key(a.cache_spec()[1]) == stable_key(b.cache_spec()[1])
        assert a.cache_spec()[0] == "reports"
        assert a.cache_spec()[1]["kind"] == "quality"

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"scene": "atlantis"}, "unknown scene"),
            ({"trajectory": "spiral"}, "unknown trajectory"),
            ({"trajectory": None}, "unknown trajectory"),
            ({"strategy": "quantum"}, "unknown strategy"),
            ({"num_gaussians": 4}, "num_gaussians"),
            ({"speed": 0.0}, "speed"),
            ({"speed": float("inf")}, "speed"),
            ({"frames": 0}, "frames"),
            ({"frames": 2.0}, "frames"),
            ({"frames": True}, "frames"),
            ({"width": 8}, "width"),
            ({"height": 40.5}, "height"),
        ],
    )
    def test_rejects_bad_input(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            QualityJob(**{**QUALITY, **overrides})

    def test_measure_shape_and_exact_strategy(self):
        value = QualityJob(**QUALITY).measure()
        assert len(value["psnr_db"]) == len(value["ssim"]) == QUALITY["frames"]
        assert value["func_sort_mb"] > 0
        exact = QualityJob(**{**QUALITY, "strategy": "full"}).measure()
        assert exact["psnr_db"] == [99.0, 99.0]  # identical to the reference


# ----------------------------------------------------------------------
# execute_cells
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FakeCell:
    key: int

    def cache_spec(self):
        return "fakes", {"kind": "fake", "key": self.key}


def _eval_fake(cell: FakeCell) -> int:
    return cell.key * 10


class TestExecuteCells:
    def test_dedup_and_alignment(self):
        cells = [FakeCell(1), FakeCell(2), FakeCell(1), FakeCell(3)]
        batch = execute_cells(cells, _eval_fake, jobs=1, cache=None)
        assert batch.values == [10, 20, 10, 30]
        assert batch.requested == 4
        assert batch.unique == 3
        assert batch.deduplicated == 1
        assert batch.computed == 3
        assert batch.from_cache == [False, False, False, False]

    def test_warm_run_serves_every_cell_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cells = [FakeCell(1), FakeCell(2)]
        cold = execute_cells(cells, _eval_fake, jobs=1, cache=cache)
        assert cold.computed == 2
        warm = execute_cells(cells, _eval_fake, jobs=1, cache=cache)
        assert warm.computed == 0
        assert warm.hits == 2
        assert warm.values == cold.values
        assert warm.from_cache == [True, True]

    def test_parallel_matches_serial(self):
        cells = [FakeCell(i) for i in range(5)]
        serial = execute_cells(cells, _eval_fake, jobs=1, cache=None)
        parallel = execute_cells(cells, _eval_fake, jobs=3, cache=None)
        assert serial.values == parallel.values


# ----------------------------------------------------------------------
# Cross-figure dedup
# ----------------------------------------------------------------------
def _count_simulations(monkeypatch) -> list[SimJob]:
    """Record every cell evaluated in this process through SimJob.simulate."""
    calls: list[SimJob] = []
    real = SimJob.simulate

    def counting(job):
        calls.append(job)
        return real(job)

    monkeypatch.setattr(SimJob, "simulate", counting)
    return calls


class TestCrossFigureDedup:
    def test_shared_cells_simulate_exactly_once(self, monkeypatch):
        # fig03's QHD column (gscore, 4 cores, 51.2 GB/s) is also fig04's
        # (bandwidth=51.2, cores=4) point: the engine must simulate each of
        # those shared cells exactly once across the two figures.
        calls = _count_simulations(monkeypatch)
        engine = ExperimentEngine(jobs=1, cache=None)
        run = engine.run_plans(
            [
                fig03.plan(scenes=FAST_SCENES, num_frames=3),
                fig04.plan(scenes=FAST_SCENES, num_frames=3),
            ]
        )
        # fig03: 2 scenes x 3 resolutions; fig04: 3 bw x 3 cores x 2 scenes;
        # overlap: (qhd, 4 cores, 51.2) x 2 scenes.
        assert run.cells.requested == 6 + 18
        assert run.cells.deduplicated == 2
        assert run.cells.computed == 22
        assert len(calls) == 22

    def test_dedup_across_fig15_fig16_fig18(self, monkeypatch):
        # fig16 (scene x {orin,gscore,neo} @ qhd) and fig18's gscore/neo qhd
        # cells are all contained in fig15's resolution sweep.
        calls = _count_simulations(monkeypatch)
        engine = ExperimentEngine(jobs=1, cache=None)
        run = engine.run_plans(
            [
                fig15.plan(scenes=FAST_SCENES, num_frames=3),
                fig16.plan(scenes=FAST_SCENES, num_frames=3),
                fig18.plan(scenes=FAST_SCENES, num_frames=3),
            ]
        )
        # fig15: 3 res x 2 scenes x 3 systems = 18 (unique)
        # fig16: 2 scenes x 3 systems = 6, all shared with fig15's qhd rows
        # fig18: 3 variants x 2 scenes = 6, gscore/neo shared (4), neo-s new (2)
        assert run.cells.requested == 18 + 6 + 6
        assert run.cells.unique == 20
        assert run.cells.deduplicated == 10
        assert len(calls) == 20

    def test_rows_match_standalone_runs(self):
        engine = ExperimentEngine(jobs=1, cache=None)
        run = engine.run_plans(
            [
                fig15.plan(scenes=FAST_SCENES, num_frames=3),
                fig16.plan(scenes=FAST_SCENES, num_frames=3),
            ]
        )
        fig15_rows = execute_plan(fig15.plan(scenes=FAST_SCENES, num_frames=3)).rows
        fig16_rows = execute_plan(fig16.plan(scenes=FAST_SCENES, num_frames=3)).rows
        assert run.outcomes[0].result.rows == fig15_rows
        assert run.outcomes[1].result.rows == fig16_rows


# ----------------------------------------------------------------------
# Engine registry path
# ----------------------------------------------------------------------
class TestEngineRun:
    def test_whole_result_cache_warm(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        names = ["fig03", "table3", "table4"]
        cold = ExperimentEngine(jobs=1, frames=3, cache=cache).run(names)
        assert not cold.all_cached
        warm = ExperimentEngine(jobs=1, frames=3, cache=cache).run(names)
        assert warm.all_cached
        for c, w in zip(cold.outcomes, warm.outcomes):
            assert w.from_cache
            assert c.result.rows == w.result.rows

    def test_cell_less_experiments_through_pool(self):
        serial = ExperimentEngine(jobs=1, cache=None).run(["table3", "table4"])
        parallel = ExperimentEngine(jobs=2, cache=None).run(["table3", "table4"])
        for s, p in zip(serial.outcomes, parallel.outcomes):
            assert s.result.rows == p.result.rows
        assert serial.cells.requested == 0

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            ExperimentEngine(jobs=1, cache=None).run(["fig99"])

    def test_parallel_rows_match_serial_and_warm_cache(self, tmp_path):
        names = ["fig03", "table3", "table4"]
        serial = ExperimentEngine(jobs=1, frames=3, cache=None).run(names)
        cache = ResultCache(tmp_path / "cache")
        parallel = ExperimentEngine(jobs=2, frames=3, cache=cache).run(names)
        assert [o.name for o in parallel.outcomes] == names
        for s, p in zip(serial.outcomes, parallel.outcomes):
            assert not p.from_cache
            assert s.result.rows == p.result.rows

        warm = ExperimentEngine(jobs=2, frames=3, cache=cache).run(names)
        for s, w in zip(serial.outcomes, warm.outcomes):
            assert w.from_cache
            assert s.result.rows == w.result.rows

    def test_frames_change_invalidates_experiment_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = ExperimentEngine(jobs=1, frames=3, cache=cache).run(["table3"])
        assert not first.outcomes[0].from_cache
        other_frames = ExperimentEngine(jobs=1, frames=4, cache=cache).run(["table3"])
        assert not other_frames.outcomes[0].from_cache
        again = ExperimentEngine(jobs=1, frames=3, cache=cache).run(["table3"])
        assert again.outcomes[0].from_cache

    def test_duplicate_names_collapse(self):
        run = ExperimentEngine(jobs=1, cache=None).run(["table3", "table3"])
        assert [o.name for o in run.outcomes] == ["table3", "table3"]
        assert run.outcomes[0].result.rows == run.outcomes[1].result.rows

    def test_same_named_plans_keep_their_own_outcomes(self):
        # Two parameterizations of the same driver share the plan name;
        # run_plans must track them by identity, not clobber by name.
        run = ExperimentEngine(jobs=1, cache=None).run_plans(
            [
                fig03.plan(scenes=("family",), num_frames=3),
                fig03.plan(scenes=("horse",), num_frames=3),
            ]
        )
        assert [r["scene"] for r in run.outcomes[0].result.rows] == ["family"] * 3
        assert [r["scene"] for r in run.outcomes[1].result.rows] == ["horse"] * 3

    def test_dispatched_experiment_reports_worker_elapsed(self):
        run = ExperimentEngine(jobs=1, cache=None).run(["fig09"])
        (outcome,) = run.outcomes
        assert not outcome.from_cache
        assert outcome.elapsed_s > 0.0

    def test_miss_stores_one_report_per_cell_from_the_parent(self, tmp_path, monkeypatch):
        # Workers only compute: every report put comes from the parent's
        # execute_cells, once per unique cell, even with a forked pool.
        log = tmp_path / "puts.log"
        real_put = ResultCache.put

        def logging_put(cache, namespace, payload, value):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{namespace} {os.getpid()}\n")
            return real_put(cache, namespace, payload, value)

        monkeypatch.setattr(ResultCache, "put", logging_put)
        cache = ResultCache(tmp_path / "cache")
        run = ExperimentEngine(jobs=2, cache=cache).run_plans(
            [fig03.plan(scenes=("horse",), num_frames=3)]
        )
        assert run.cells.computed == 3
        report_puts = [
            line.split()[1] for line in log.read_text().splitlines()
            if line.split()[0] == "reports"
        ]
        assert report_puts == [str(os.getpid())] * 3
        assert cache.info()["namespaces"]["reports"]["entries"] == 3


# ----------------------------------------------------------------------
# Serial vs parallel byte-identical artifacts
# ----------------------------------------------------------------------
class TestArtifacts:
    def test_columns_union_and_to_text(self):
        result = ExperimentResult("x", "y", rows=[{"a": 1}, {"a": 2, "b": 3.5}])
        assert result.columns() == ["a", "b"]
        lines = result.to_text().splitlines()
        assert "b" in lines[1]  # header carries the late column
        assert "-" in lines[2]  # first row has no 'b' cell

    def test_json_csv_writers_deterministic(self, tmp_path):
        result = execute_plan(table3.plan())
        a = result.write_json(tmp_path / "a.json").read_bytes()
        b = result.write_json(tmp_path / "b.json").read_bytes()
        assert a == b
        payload = json.loads(a)
        assert payload["name"] == "table3"
        assert payload["rows"] == result.rows
        assert len(payload["code_version"]) == 16
        csv_text = result.write_csv(tmp_path / "a.csv").read_text()
        assert csv_text.splitlines()[0] == ",".join(result.columns())
        assert len(csv_text.splitlines()) == len(result.rows) + 1

    def test_serial_and_parallel_artifacts_byte_identical(self, tmp_path):
        plans = [
            fig03.plan(scenes=FAST_SCENES, num_frames=3),
            fig16.plan(scenes=FAST_SCENES, num_frames=3),
        ]
        serial = ExperimentEngine(jobs=1, cache=None).run_plans(plans)
        parallel = ExperimentEngine(jobs=2, cache=None).run_plans(plans)
        for s, p in zip(serial.outcomes, parallel.outcomes):
            s_path = s.result.write_json(tmp_path / f"serial-{s.name}.json")
            p_path = p.result.write_json(tmp_path / f"parallel-{p.name}.json")
            assert s_path.read_bytes() == p_path.read_bytes()
            s_csv = s.result.write_csv(tmp_path / f"serial-{s.name}.csv")
            p_csv = p.result.write_csv(tmp_path / f"parallel-{p.name}.csv")
            assert s_csv.read_bytes() == p_csv.read_bytes()


# ----------------------------------------------------------------------
# Golden: every registered experiment, in-process vs through the engine
# ----------------------------------------------------------------------
#: Fast parameterizations: every driver exercised end-to-end, test-sized.
GOLDEN_PARAMS = {
    "bandwidth_sweep": (bandwidth_sweep, {"num_frames": 3, "bandwidths": (25.6, 51.2)}),
    "fig03": (fig03, {"scenes": FAST_SCENES, "num_frames": 3}),
    "fig04": (fig04, {"scenes": FAST_SCENES, "num_frames": 3}),
    "fig05": (fig05, {"scenes": FAST_SCENES, "num_frames": 3}),
    "fig06": (fig06, {"scenes": ("family",), "num_frames": 3, "num_gaussians": 800}),
    "fig07": (fig07, {"scenes": ("family",), "num_frames": 3, "num_gaussians": 800}),
    "fig09": (fig09, {"length": 128, "chunk_size": 16, "iterations": 3,
                      "shuffle_distance": 12}),
    "fig10": (fig10, {"scenes": ("family",), "num_frames": 3}),
    "fig15": (fig15, {"scenes": FAST_SCENES, "num_frames": 3}),
    "fig16": (fig16, {"scenes": FAST_SCENES, "num_frames": 3}),
    "fig17": (fig17, {"num_frames": 3}),
    "fig18": (fig18, {"scenes": FAST_SCENES, "num_frames": 3}),
    "fig19": (fig19, {"num_frames": 4, "width": 128, "height": 72,
                      "num_gaussians": 600, "period": 2, "lag": 1}),
    "recovery": (recovery, {"num_frames": 10, "jump_frame": 4, "width": 128,
                            "height": 72, "num_gaussians": 600}),
    "table2": (table2, {"scenes": ("family",), "num_frames": 2, "width": 128,
                        "height": 72, "num_gaussians": 600}),
    "table3": (table3, {}),
    "table4": (table4, {}),
}


@pytest.mark.slow
class TestGoldenAllExperiments:
    def test_params_cover_every_registered_experiment(self):
        assert sorted(GOLDEN_PARAMS) == list_experiments()

    def test_all_17_row_identical_run_vs_engine(self):
        # The acceptance bar for the plan/execute refactor: for every
        # registered experiment, the declarative plan executed through the
        # engine (parallel, deduped) produces rows identical to the same plan
        # executed serially in-process.
        plans = [module.plan(**kwargs) for module, kwargs in GOLDEN_PARAMS.values()]
        engine_run = ExperimentEngine(jobs=2, cache=None).run_plans(plans)
        for (name, (module, kwargs)), outcome in zip(
            GOLDEN_PARAMS.items(), engine_run.outcomes
        ):
            direct = execute_plan(module.plan(**kwargs))
            assert outcome.result.name == direct.name, name
            assert outcome.result.rows == direct.rows, name


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCliExperiments:
    def test_list_flag_shows_descriptions(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        descriptions = experiment_descriptions()
        assert len(descriptions) == 17
        for name, description in descriptions.items():
            assert name in out
            assert description in out

    def test_only_filters_selection(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        rc = main(
            ["experiments", "table3", "fig09", "--only", "table*",
             "--cache-dir", cache_dir]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "table3" in out
        assert "fig09" not in out

    def test_only_without_match_errors(self, capsys):
        assert main(["experiments", "table3", "--only", "nope*"]) == 2
        assert "--only" in capsys.readouterr().err

    def test_out_artifacts_cold_warm_byte_identical(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        cold_dir = tmp_path / "cold"
        warm_dir = tmp_path / "warm"
        assert main(
            ["experiments", "table3", "table4", "--cache-dir", cache_dir,
             "--out", str(cold_dir)]
        ) == 0
        rc = main(
            ["experiments", "table3", "table4", "--cache-dir", cache_dir,
             "--out", str(warm_dir), "--require-cached"]
        )
        assert rc == 0
        capsys.readouterr()
        for name in ("table3", "table4"):
            for suffix in (".json", ".csv"):
                cold = (cold_dir / f"{name}{suffix}").read_bytes()
                warm = (warm_dir / f"{name}{suffix}").read_bytes()
                assert cold == warm

    def test_require_cached_fails_cold(self, tmp_path, capsys):
        rc = main(
            ["experiments", "table3", "--cache-dir", str(tmp_path / "cache"),
             "--require-cached"]
        )
        assert rc == 1
        assert "--require-cached" in capsys.readouterr().err

    def test_cell_stats_line(self, tmp_path, capsys):
        rc = main(
            ["experiments", "fig03", "--frames", "3", "--no-cache",
             "--cache-dir", str(tmp_path / "cache")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cells:" in out
        assert "deduped across figures" in out
