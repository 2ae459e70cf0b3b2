"""Tests for the declarative scenario-sweep subsystem."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.strategies import make_strategy
from repro.experiments import SimJob, runner
from repro.hw.workload import WorkloadModel
from repro.metrics.image import psnr, ssim
from repro.pipeline.renderer import Renderer
from repro.runtime import ResultCache, stable_key
from repro.scene.datasets import archetype_trajectory, load_scene
from repro.sweeps import (
    HardwareConfig,
    SweepReport,
    SweepRunner,
    SweepSpec,
    get_sweep_spec,
    list_sweep_specs,
    read_csv_rows,
    resolve_spec,
)
from repro.sweeps.executor import point_cells


def cell_keys(point) -> tuple[str, ...]:
    """Stable cache keys of the engine cells a point compiles to."""
    return tuple(stable_key(cell.cache_spec()[1]) for cell in point_cells(point))


#: A deliberately tiny spec: 2 points, small scene, short sequence.
TINY = SweepSpec(
    name="tiny",
    scenes=("family",),
    num_gaussians=(128,),
    trajectories=("orbit", "teleport"),
    strategies=("neo",),
    hardware=(HardwareConfig(system="neo", resolution="hd"),),
    frames=3,
    capture_width=160,
    capture_height=90,
    render_width=96,
    render_height=54,
)

#: TINY's distinct engine cells: a SimJob and a QualityJob per point.
TINY_CELLS = 2 * TINY.num_points


class TestSpecParsing:
    def test_dict_roundtrip(self):
        spec = SweepSpec.from_dict(TINY.to_dict())
        assert spec == TINY

    def test_json_roundtrip(self):
        assert SweepSpec.from_json(TINY.to_json()) == TINY

    def test_scalars_promote_to_axes(self):
        spec = SweepSpec(name="s", scenes="family", strategies="full", speeds=2.0)
        assert spec.scenes == ("family",)
        assert spec.strategies == ("full",)
        assert spec.speeds == (2.0,)

    def test_hardware_dicts_parse(self):
        spec = SweepSpec.from_dict(
            {
                "name": "hw",
                "hardware": [{"system": "gscore", "cores": 8}, {"system": "neo"}],
            }
        )
        assert spec.hardware[0].system == "gscore"
        assert spec.hardware[0].cores == 8
        assert spec.hardware[1].resolution == "qhd"

    def test_hardware_dicts_accepted_by_direct_constructor(self):
        # The constructor must normalize dict entries too, not just from_dict.
        spec = SweepSpec(name="hw", hardware=[{"system": "gscore"}])
        assert spec.hardware[0] == HardwareConfig(system="gscore")
        with pytest.raises(ValueError, match="hardware entry must be a dict"):
            SweepSpec(name="hw", hardware=("neo",))

    def test_equivalent_spellings_normalize_to_identical_specs(self):
        # Case and int-vs-float spelling must not change grid cache keys.
        a = SweepSpec(name="n", scenes=("Family",), speeds=(2,),
                      hardware=(HardwareConfig(system="neo", bandwidth_gbps=52),))
        b = SweepSpec(name="n", scenes=("family",), speeds=(2.0,),
                      hardware=(HardwareConfig(system="NEO", bandwidth_gbps=52.0),))
        assert a == b
        keys_a = [cell_keys(p) for p in a.points()]
        keys_b = [cell_keys(p) for p in b.points()]
        assert keys_a == keys_b

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"scenes": ("atlantis",)}, "unknown scenes"),
            ({"trajectories": ("spiral",)}, "unknown trajectories"),
            ({"strategies": ("quantum",)}, "unknown strategies"),
            ({"frames": 1}, "frames"),
            ({"speeds": (0.0,)}, "speeds"),
            ({"num_gaussians": (4,)}, "num_gaussians"),
            ({"scenes": ()}, "at least one"),
            ({"render_width": 2}, "dimensions"),
            ({"speeds": (float("nan"),)}, "speeds"),
            ({"speeds": (float("inf"),)}, "speeds"),
            ({"frames": 2.5}, "frames"),
            ({"capture_width": 240.7}, "dimensions"),
        ],
    )
    def test_validation_errors(self, overrides, message):
        payload = {**TINY.to_dict(), **overrides}
        with pytest.raises(ValueError, match=message):
            SweepSpec.from_dict(payload)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep-spec keys"):
            SweepSpec.from_dict({"name": "x", "scens": ["family"]})
        with pytest.raises(ValueError, match="unknown hardware keys"):
            HardwareConfig.from_dict({"system": "neo", "bandwith": 51.2})

    def test_bad_hardware_values(self):
        with pytest.raises(ValueError, match="unknown system"):
            HardwareConfig(system="tpu")
        with pytest.raises(ValueError, match="unknown resolution"):
            HardwareConfig(resolution="8k")
        with pytest.raises(ValueError, match="bandwidth"):
            HardwareConfig(bandwidth_gbps=-1.0)
        for bandwidth in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="bandwidth"):
                HardwareConfig(bandwidth_gbps=bandwidth)

    def test_invalid_json_text(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            SweepSpec.from_json("{nope")


class TestGridExpansion:
    def test_count_is_axis_product(self):
        spec = SweepSpec(
            name="grid",
            scenes=("family", "horse"),
            num_gaussians=(64, 128, None),
            trajectories=("orbit", "pan"),
            speeds=(1.0, 2.0),
            strategies=("neo", "full"),
            hardware=(HardwareConfig(), HardwareConfig(system="gscore")),
        )
        assert spec.num_points == 2 * 3 * 2 * 2 * 2 * 2
        points = spec.points()
        assert len(points) == spec.num_points
        assert [p.index for p in points] == list(range(spec.num_points))
        # Every point is distinct; points that differ only in strategy
        # share their SimJob.
        assert len({cell_keys(p) for p in points}) == spec.num_points
        assert len({cell_keys(p)[0] for p in points}) == spec.num_points // 2

    def test_point_cache_keys_deterministic(self):
        first = [cell_keys(p) for p in TINY.points()]
        reparsed = SweepSpec.from_json(TINY.to_json())
        second = [cell_keys(p) for p in reparsed.points()]
        assert first == second

    def test_cache_key_independent_of_grid_position(self):
        # Slicing a spec down must not change the surviving point's keys.
        wide = TINY
        narrow = SweepSpec.from_dict({**TINY.to_dict(), "trajectories": ["teleport"]})
        wide_keys = {p.trajectory: cell_keys(p) for p in wide.points()}
        (narrow_point,) = narrow.points()
        assert cell_keys(narrow_point) == wide_keys["teleport"]

    def test_cache_key_sensitive_to_parameters(self):
        # Each parameter reaches the key of exactly the cells it affects:
        # (SimJob changed, QualityJob changed).
        cases = [
            ({"frames": 4}, (True, True)),
            ({"scenes": ["horse"]}, (True, True)),
            ({"num_gaussians": [256]}, (True, True)),
            ({"trajectories": ["teleport"]}, (True, True)),
            ({"speeds": [2.0]}, (True, True)),
            ({"capture_width": 320}, (True, False)),
            ({"capture_height": 180}, (True, False)),
            ({"hardware": [{"system": "gscore", "resolution": "hd"}]}, (True, False)),
            ({"hardware": [{"system": "neo", "resolution": "qhd"}]}, (True, False)),
            ({"hardware": [{"system": "neo", "resolution": "hd", "cores": 8}]}, (True, False)),
            (
                {"hardware": [{"system": "neo", "resolution": "hd", "bandwidth_gbps": 25.6}]},
                (True, False),
            ),
            ({"strategies": ["full"]}, (False, True)),
            ({"render_width": 128}, (False, True)),
            ({"render_height": 72}, (False, True)),
        ]
        base = cell_keys(TINY.points()[0])
        for overrides, changed in cases:
            other = cell_keys(SweepSpec.from_dict({**TINY.to_dict(), **overrides}).points()[0])
            assert tuple(a != b for a, b in zip(base, other)) == changed, overrides


class TestExecutor:
    def test_serial_parallel_and_warm_reports_identical(self, tmp_path):
        serial = SweepRunner(jobs=1, cache=None).run(TINY)
        assert serial.misses == TINY_CELLS

        cache = ResultCache(tmp_path / "cache")
        parallel = SweepRunner(jobs=2, cache=cache).run(TINY)
        assert json.dumps(serial.report.to_dict(), sort_keys=True) == json.dumps(
            parallel.report.to_dict(), sort_keys=True
        )

        warm = SweepRunner(jobs=2, cache=cache).run(TINY)
        assert warm.all_cached
        assert warm.hits == TINY_CELLS
        assert json.dumps(warm.report.to_dict(), sort_keys=True) == json.dumps(
            serial.report.to_dict(), sort_keys=True
        )

    def test_rows_carry_both_model_and_quality_metrics(self):
        report = SweepRunner(jobs=1, cache=None).run(TINY).report
        assert report.num_points == 2
        for row in report.rows:
            assert row["fps"] > 0
            assert row["traffic_gb_60f"] > 0
            assert 0 < row["mean_ssim"] <= 1.0
            assert row["mean_psnr_db"] >= row["min_psnr_db"]
            assert row["func_sort_mb"] > 0

    def test_rows_equal_direct_cell_evaluations(self):
        # A row's hardware columns are a direct SimJob's, its quality
        # columns a direct render of the same point against the exact sort.
        report = SweepRunner(jobs=1, cache=None).run(TINY).report
        for point, row in zip(TINY.points(), report.rows):
            hw = point.hardware
            seq = SimJob(
                hw.system, point.scene, hw.resolution, frames=point.frames,
                speed=point.speed, cores=hw.cores, bandwidth_gbps=hw.bandwidth_gbps,
                trajectory=point.trajectory, num_gaussians=point.num_gaussians,
                capture_width=point.capture_width, capture_height=point.capture_height,
            ).simulate()
            assert row["fps"] == seq.fps
            assert row["mean_latency_ms"] == seq.mean_latency_s * 1e3
            assert row["traffic_gb_60f"] == seq.traffic_gb_for(60)
            assert row["sorting_traffic_frac"] == seq.total_traffic.fractions()["sorting"]

            cameras = archetype_trajectory(
                point.scene, point.trajectory, point.frames, point.speed,
                point.render_width, point.render_height,
            )
            scene = load_scene(point.scene, num_gaussians=point.num_gaussians)
            strategy = make_strategy(point.strategy)
            images = [r.image for r in Renderer(scene, strategy=strategy).render_sequence(cameras)]
            references = [r.image for r in Renderer(scene).render_sequence(cameras)]
            psnrs = [psnr(a, b) for a, b in zip(references, images)]
            assert row["mean_psnr_db"] == float(np.mean(psnrs))
            assert row["min_psnr_db"] == float(np.min(psnrs))
            assert row["mean_ssim"] == float(
                np.mean([ssim(a, b) for a, b in zip(references, images)])
            )
            assert row["func_sort_mb"] == strategy.total_traffic().total_bytes / 1e6

    def test_cold_serial_sweep_captures_each_workload_once(self, monkeypatch):
        # Strategies and hardware share a point's capture: TINY widened on
        # both axes still captures once per trajectory.
        spec = SweepSpec.from_dict({
            **TINY.to_dict(),
            "strategies": ["neo", "full"],
            "hardware": [{"system": "neo", "resolution": "hd"},
                         {"system": "gscore", "resolution": "qhd"}],
        })
        captures = []
        real = WorkloadModel.from_render

        def counting(scene, cameras, *args, **kwargs):
            captures.append((len(scene), cameras[0].width, len(cameras)))
            return real(scene, cameras, *args, **kwargs)

        monkeypatch.setattr(WorkloadModel, "from_render", staticmethod(counting))
        runner._workload_model_cached.cache_clear()
        SweepRunner(jobs=1, cache=None).run(spec)
        assert len(captures) == len(spec.trajectories) == 2

    def test_measure_quality_false_skips_render_columns(self):
        spec = SweepSpec.from_dict({**TINY.to_dict(), "measure_quality": False})
        report = SweepRunner(jobs=1, cache=None).run(spec).report
        for row in report.rows:
            assert "mean_psnr_db" not in row
            assert row["fps"] > 0


class TestReportSerialization:
    @pytest.fixture(scope="class")
    def report(self):
        return SweepRunner(jobs=1, cache=None).run(TINY).report

    def test_json_roundtrip(self, report, tmp_path):
        path = report.write_json(tmp_path / "r.json")
        loaded = SweepReport.load_json(path)
        assert loaded.name == report.name
        assert loaded.code_version == report.code_version
        assert loaded.spec == report.spec
        assert loaded.rows == report.rows

    def test_csv_roundtrip(self, report, tmp_path):
        path = report.write_csv(tmp_path / "r.csv")
        rows = read_csv_rows(path)
        assert len(rows) == report.num_points
        for original, parsed in zip(report.rows, rows):
            for key, value in original.items():
                if isinstance(value, float):
                    assert parsed[key] == pytest.approx(value)
                else:
                    assert parsed[key] == value

    def test_markdown_table(self, report):
        text = report.to_markdown()
        assert " fps " in text
        assert report.rows[0]["point"] in text
        capped = report.to_markdown(max_rows=1)
        assert "1 more rows omitted" in capped

    def test_load_json_rejects_non_reports(self, tmp_path):
        path = tmp_path / "not_report.json"
        path.write_text(json.dumps({"rows": []}))
        with pytest.raises(ValueError, match="missing keys"):
            SweepReport.load_json(path)


class TestRegistry:
    def test_predefined_specs_listed_and_valid(self):
        names = list_sweep_specs()
        for expected in ("smoke", "neo_vs_baselines", "motion_stress", "scaling"):
            assert expected in names
        for name in names:
            spec = get_sweep_spec(name)
            assert spec.num_points >= 2
            # Each predefined spec re-validates through a dict round-trip.
            assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_sweep_spec("nope")
        with pytest.raises(KeyError):
            resolve_spec("nope")

    def test_resolve_spec_file(self, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(TINY.to_json())
        assert resolve_spec(str(path)) == TINY
        with pytest.raises(FileNotFoundError):
            resolve_spec(str(tmp_path / "missing.json"))


class TestSweepCli:
    def test_run_cold_then_warm_require_cached(self, tmp_path, capsys):
        spec_path = tmp_path / "tiny.json"
        spec_path.write_text(TINY.to_json())
        cache_dir = str(tmp_path / "cache")
        out_cold = tmp_path / "cold"
        out_warm = tmp_path / "warm"

        rc = main(
            ["sweep", "run", "--spec", str(spec_path), "--cache-dir", cache_dir,
             "--out", str(out_cold)]
        )
        assert rc == 0
        assert "0 from cache" in capsys.readouterr().out

        rc = main(
            ["sweep", "run", "--spec", str(spec_path), "--cache-dir", cache_dir,
             "--out", str(out_warm), "--require-cached"]
        )
        assert rc == 0
        assert f"{TINY_CELLS} from cache" in capsys.readouterr().out

        cold = (out_cold / "tiny.json").read_bytes()
        warm = (out_warm / "tiny.json").read_bytes()
        assert cold == warm
        assert (out_cold / "tiny.csv").exists()
        assert (out_cold / "tiny.md").exists()

    def test_require_cached_fails_cold(self, tmp_path, capsys):
        spec_path = tmp_path / "tiny.json"
        spec_path.write_text(TINY.to_json())
        rc = main(
            ["sweep", "run", "--spec", str(spec_path), "--cache-dir",
             str(tmp_path / "cache"), "--require-cached"]
        )
        assert rc == 1
        assert "recomputed" in capsys.readouterr().err

    def test_list(self, capsys):
        assert main(["sweep", "list"]) == 0
        out = capsys.readouterr().out
        assert "motion_stress" in out and "smoke" in out

    def test_report_roundtrip(self, tmp_path, capsys):
        report = SweepRunner(jobs=1, cache=None).run(TINY).report
        path = report.write_json(tmp_path / "tiny.json")
        assert main(["sweep", "report", str(path)]) == 0
        assert report.rows[0]["point"] in capsys.readouterr().out

    def test_report_bad_source(self, tmp_path, capsys):
        assert main(["sweep", "report", str(tmp_path / "missing.json")]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_run_unknown_spec(self, capsys):
        assert main(["sweep", "run", "--spec", "definitely_not_a_spec"]) == 2
        assert "unknown sweep" in capsys.readouterr().err
