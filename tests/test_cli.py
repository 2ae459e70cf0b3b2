"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main, write_ppm


class TestParser:
    def test_subcommands(self):
        parser = build_parser()
        assert parser.parse_args(["list"]).command == "list"
        args = parser.parse_args(["experiments", "fig15"])
        assert args.names == ["fig15"]
        args = parser.parse_args(["simulate", "neo", "family", "qhd"])
        assert args.system == "neo"
        assert args.bandwidth == 51.2

    def test_rejects_unknown_system(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "tpu", "family", "qhd"])

    def test_simulate_accepts_registered_variants(self):
        # The simulate choices come from the registry, not a hand-kept list.
        args = build_parser().parse_args(["simulate", "neo-lite", "family", "hd"])
        assert args.system == "neo-lite"

    def test_systems_subcommands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["systems", "list"]).systems_command == "list"
        args = parser.parse_args(["systems", "show", "neo"])
        assert args.systems_command == "show" and args.name == "neo"
        with pytest.raises(SystemExit):
            parser.parse_args(["systems"])

    def test_rejects_missing_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 7341 and args.workers == 2 and args.queue_limit == 64
        assert args.cache_dir == ".repro_cache" and not args.no_cache

    def test_loadgen_args(self):
        args = build_parser().parse_args(
            ["loadgen", "--port", "7000", "--requests", "50", "--rate", "99.5",
             "--tenants", "8", "--verify", "--assert-coalesce",
             "--out", "BENCH_service.json"]
        )
        assert args.command == "loadgen"
        assert args.port == 7000 and args.requests == 50 and args.rate == 99.5
        assert args.tenants == 8 and args.verify and args.assert_coalesce
        assert args.out == "BENCH_service.json"

    def test_cache_clear_namespace(self):
        args = build_parser().parse_args(
            ["cache", "clear", "--namespace", "tenants/acme"]
        )
        assert args.action == "clear" and args.namespace == "tenants/acme"


class TestWritePpm:
    def test_roundtrip_header_and_pixels(self, tmp_path):
        image = np.zeros((2, 3, 3))
        image[0, 0] = (1.0, 0.0, 0.5)
        path = tmp_path / "out.ppm"
        write_ppm(str(path), image)
        payload = path.read_bytes()
        assert payload.startswith(b"P6\n3 2\n255\n")
        pixels = payload.split(b"255\n", 1)[1]
        assert len(pixels) == 2 * 3 * 3
        assert pixels[0] == 255 and pixels[1] == 0 and pixels[2] == 128

    def test_clipping(self, tmp_path):
        image = np.full((1, 1, 3), 2.0)
        path = tmp_path / "clip.ppm"
        write_ppm(str(path), image)
        assert path.read_bytes()[-3:] == b"\xff\xff\xff"

    def test_rejects_bad_shape(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(str(tmp_path / "bad.ppm"), np.zeros((4, 4)))


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig15" in out and "family" in out

    def test_run_table3(self, capsys):
        assert main(["experiments", "table3", "--no-cache"]) == 0
        assert "GSCore" in capsys.readouterr().out

    def test_simulate(self, capsys):
        assert main(["simulate", "neo", "horse", "hd", "--frames", "3"]) == 0
        out = capsys.readouterr().out
        assert "FPS" in out and "sorting" in out

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["nosuch", "hd"], "unknown scene 'nosuch'"),
            (["family", "hd", "--frames", "0"], "frames must be"),
            (["family", "hd", "--bandwidth", "-5"], "bandwidth_gbps must be"),
        ],
    )
    def test_simulate_rejects_invalid_cell(self, capsys, extra, message):
        assert main(["simulate", "neo", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

    def test_list_names_registered_systems(self, capsys):
        from repro.hw.system import registered_systems

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in registered_systems():
            assert name in out

    def test_systems_list(self, capsys):
        from repro.hw.system import registered_systems

        assert main(["systems", "list"]) == 0
        out = capsys.readouterr().out
        for name in registered_systems():
            assert name in out
        assert "= neo + overlay" in out  # variants show their base
        assert "[native]" in out and "[edge]" in out

    def test_systems_list_ids_is_script_friendly(self, capsys):
        from repro.hw.system import registered_systems

        assert main(["systems", "list", "--ids"]) == 0
        out = capsys.readouterr().out
        assert out.split() == list(registered_systems())

    def test_systems_show_base_system(self, capsys):
        assert main(["systems", "show", "neo"]) == 0
        out = capsys.readouterr().out
        assert "NeoModel" in out
        assert "sorting_cores" in out  # config fields listed
        assert "defer_depth_update" in out  # model kwargs listed

    def test_systems_show_variant_lists_overlay(self, capsys):
        assert main(["systems", "show", "neo-s"]) == 0
        out = capsys.readouterr().out
        assert "base:        neo" in out
        assert "sorting_engine_only=True" in out

    def test_systems_show_unknown_errors_with_options(self, capsys):
        assert main(["systems", "show", "tpu"]) == 2
        err = capsys.readouterr().err
        assert "unknown system" in err and "neo-lite" in err

    def test_render(self, tmp_path, capsys):
        out_path = tmp_path / "frame.ppm"
        code = main([
            "render", "horse", str(out_path),
            "--width", "96", "--height", "54", "--gaussians", "300",
        ])
        assert code == 0
        assert out_path.exists()
        assert out_path.read_bytes().startswith(b"P6\n96 54\n")


class TestBenchCli:
    def test_parser_accepts_bench_flags(self):
        args = build_parser().parse_args(
            ["bench", "order_metrics", "--quick", "--out", "b.json", "--no-gate"]
        )
        assert args.command == "bench"
        assert args.names == ["order_metrics"] and args.quick and args.no_gate

    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("raster", "sort_batched", "order_metrics",
                     "render_sequence", "hw_system"):
            assert name in out

    def test_bench_unknown_name_errors(self, capsys):
        assert main(["bench", "nope"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_bench_runs_and_writes_artifact(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "BENCH_pipeline.json"
        code = main(["bench", "order_metrics", "hw_system", "--quick",
                     "--out", str(out_path), "--no-gate"])
        assert code == 0
        out = capsys.readouterr().out
        assert "order_metrics" in out and "floor" in out
        payload = json.loads(out_path.read_text())
        assert payload["schema"] == "repro-bench/1"
        assert payload["quick"] is True
        names = [b["name"] for b in payload["benchmarks"]]
        assert names == ["order_metrics", "hw_system"]
        for bench in payload["benchmarks"]:
            assert bench["identical"] is True
            assert bench["baseline_ms"] > 0 and bench["optimized_ms"] > 0

    def test_bench_profile_records_top_functions(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "bench.json"
        code = main(["bench", "order_metrics", "--quick", "--no-gate",
                     "--profile", "--out", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        (entry,) = payload["benchmarks"]
        profile = entry["detail"]["profile"]
        assert 0 < len(profile) <= 15
        # Rows are sorted by cumulative time and carry call attribution.
        cums = [row["cumtime_s"] for row in profile]
        assert cums == sorted(cums, reverse=True)
        for row in profile:
            assert row["function"] and row["location"]
            assert row["ncalls"] >= row["primitive_calls"] >= 1
        # The bench body itself must appear in its own profile.
        assert any("bench_order_metrics" in row["function"] for row in profile)
        # Unprofiled runs stay free of the key.
        from repro.bench import run_benchmarks

        (plain,) = run_benchmarks(["order_metrics"], quick=True)
        assert "profile" not in plain.detail
