"""Tests for the CI bench-trend gate (benchmarks/bench_trend.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_trend.py"
_spec = importlib.util.spec_from_file_location("bench_trend", _SCRIPT)
bench_trend = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trend)


def artifact(path, speedups):
    payload = {
        "schema": "repro-bench/1",
        "benchmarks": [
            {"name": name, "speedup": speedup} for name, speedup in speedups.items()
        ],
    }
    path.write_text(json.dumps(payload))
    return str(path)


class TestCompare:
    def test_within_threshold_passes(self):
        lines, ok = bench_trend.compare(
            {"raster": {"speedup": 2.5}}, {"raster": {"speedup": 2.0}}, 0.25
        )
        assert ok
        assert "ok" in lines[0]

    def test_regression_beyond_threshold_fails(self):
        lines, ok = bench_trend.compare(
            {"raster": {"speedup": 2.5}}, {"raster": {"speedup": 1.5}}, 0.25
        )
        assert not ok
        assert "REGRESSED" in lines[0]

    def test_improvement_passes(self):
        _, ok = bench_trend.compare(
            {"raster": {"speedup": 2.0}}, {"raster": {"speedup": 3.0}}, 0.25
        )
        assert ok

    def test_missing_benchmark_fails(self):
        lines, ok = bench_trend.compare({"raster": {"speedup": 2.5}}, {}, 0.25)
        assert not ok
        assert "MISSING" in lines[0]

    def test_new_benchmark_is_note_only(self):
        lines, ok = bench_trend.compare(
            {"raster": {"speedup": 2.5}},
            {"raster": {"speedup": 2.5}, "sort": {"speedup": 1.4}},
            0.25,
        )
        assert ok
        assert any("new benchmark" in line for line in lines)


def staged(total_speedup, baseline_ms, stage_seconds):
    return {
        "speedup": total_speedup,
        "baseline_ms": baseline_ms,
        "detail": {"stage_seconds": stage_seconds},
    }


class TestStageCompare:
    def test_stage_regression_fails_even_when_total_passes(self):
        # Raster got 4x slower while sort got faster; the total speedup is
        # flat, which is exactly the blind spot the stage gate closes.
        base = {
            "render": staged(
                2.0, 2000.0, {"raster_s": 1.0, "sort_s": 0.5, "total_s": 1.5}
            )
        }
        fresh = {
            "render": staged(
                2.0, 2000.0, {"raster_s": 4.0, "sort_s": 0.1, "total_s": 4.1}
            )
        }
        lines, ok = bench_trend.compare(base, fresh, 0.25)
        assert not ok
        assert any("REGRESSED" in line and "raster_s" in line for line in lines)
        assert any("raster_s regressed" in line for line in lines)

    def test_stage_regression_names_the_stage(self):
        base = {"render": staged(2.0, 2000.0, {"raster_s": 1.0, "sort_s": 0.5})}
        fresh = {"render": staged(2.0, 2000.0, {"raster_s": 4.0, "sort_s": 0.5})}
        lines, regressed = bench_trend.compare_stages(
            base["render"], fresh["render"], 0.5, 0.05
        )
        assert regressed == ["raster_s"]
        assert not any("sort_s" in line and "REGRESSED" in line for line in lines)

    def test_tiny_stage_noise_is_info_only(self):
        # cull is 0.1% of stage time; a 10x swing there must not gate.
        base = {
            "render": staged(2.0, 2000.0, {"raster_s": 1.0, "cull_s": 0.001})
        }
        fresh = {
            "render": staged(2.0, 2000.0, {"raster_s": 1.0, "cull_s": 0.01})
        }
        lines, ok = bench_trend.compare(base, fresh, 0.25)
        assert ok
        assert any("info only" in line and "cull_s" in line for line in lines)

    def test_stages_within_threshold_pass(self):
        base = {"render": staged(2.0, 2000.0, {"raster_s": 1.0, "sort_s": 0.5})}
        fresh = {"render": staged(1.9, 2000.0, {"raster_s": 1.2, "sort_s": 0.6})}
        lines, ok = bench_trend.compare(base, fresh, 0.25)
        assert ok

    def test_benchmarks_without_stages_unaffected(self):
        lines, ok = bench_trend.compare(
            {"raster": {"speedup": 2.5}}, {"raster": {"speedup": 2.4}}, 0.25
        )
        assert ok
        assert not any("stage" in line for line in lines)

    def test_missing_stage_in_fresh_fails(self):
        base = {"render": staged(2.0, 2000.0, {"raster_s": 1.0})}
        fresh = {"render": staged(2.0, 2000.0, {"blend_s": 1.0})}
        _, regressed = bench_trend.compare_stages(
            base["render"], fresh["render"], 0.5, 0.05
        )
        assert regressed == ["raster_s"]

    def test_stage_threshold_is_configurable(self, tmp_path):
        def payload(raster):
            return {
                "schema": "repro-bench/1",
                "benchmarks": [
                    {
                        "name": "render",
                        "speedup": 2.0,
                        "baseline_ms": 2000.0,
                        "detail": {"stage_seconds": {"raster_s": raster}},
                    }
                ],
            }
        base = tmp_path / "base.json"
        fresh = tmp_path / "fresh.json"
        base.write_text(json.dumps(payload(1.0)))
        fresh.write_text(json.dumps(payload(2.5)))
        args = ["--baseline", str(base), "--fresh", str(fresh)]
        assert bench_trend.main(args) == 1
        assert bench_trend.main(args + ["--max-stage-regression", "0.8"]) == 0


class TestMain:
    def test_pass_exit_zero(self, tmp_path, capsys):
        base = artifact(tmp_path / "base.json", {"raster": 2.5, "sort": 1.3})
        fresh = artifact(tmp_path / "fresh.json", {"raster": 2.4, "sort": 1.25})
        assert bench_trend.main(["--baseline", base, "--fresh", fresh]) == 0
        out = capsys.readouterr().out
        assert "bench trend" in out and "raster" in out

    def test_regression_exit_one(self, tmp_path, capsys):
        base = artifact(tmp_path / "base.json", {"raster": 2.5})
        fresh = artifact(tmp_path / "fresh.json", {"raster": 1.0})
        assert bench_trend.main(["--baseline", base, "--fresh", fresh]) == 1
        assert "refresh the committed baseline" in capsys.readouterr().err

    def test_threshold_is_configurable(self, tmp_path):
        base = artifact(tmp_path / "base.json", {"raster": 2.0})
        fresh = artifact(tmp_path / "fresh.json", {"raster": 1.2})
        args = ["--baseline", base, "--fresh", fresh]
        assert bench_trend.main(args) == 1
        assert bench_trend.main(args + ["--max-regression", "0.5"]) == 0

    def test_missing_fresh_file_exit_two(self, tmp_path, capsys):
        base = artifact(tmp_path / "base.json", {"raster": 2.5})
        code = bench_trend.main(
            ["--baseline", base, "--fresh", str(tmp_path / "nope.json")]
        )
        assert code == 2
        assert "cannot load" in capsys.readouterr().err

    def test_empty_baseline_exit_two(self, tmp_path, capsys):
        base = artifact(tmp_path / "base.json", {})
        fresh = artifact(tmp_path / "fresh.json", {"raster": 2.5})
        assert bench_trend.main(["--baseline", base, "--fresh", fresh]) == 2
        assert "no benchmarks in baseline" in capsys.readouterr().err

    def test_committed_baseline_compares_clean_against_itself(self):
        baseline_path = str(_SCRIPT.parent.parent / "BENCH_pipeline.json")
        if not Path(baseline_path).exists():
            pytest.skip("no committed baseline in this checkout")
        code = bench_trend.main(
            ["--baseline", baseline_path, "--fresh", baseline_path]
        )
        assert code == 0

    def test_committed_baseline_gates_bucketed_rasterization(self):
        # The trend gate only protects entries recorded in the committed
        # baseline; the rasterizer must be one of them, with the committed
        # full-mode speedup clearing its own CI floor.
        baseline_path = _SCRIPT.parent.parent / "BENCH_pipeline.json"
        if not baseline_path.exists():
            pytest.skip("no committed baseline in this checkout")
        benches = bench_trend.load_benchmarks(str(baseline_path))
        assert "raster" in benches
        entry = benches["raster"]
        assert entry["identical"] is True
        assert entry["speedup"] >= entry["floor"] >= 2.0
