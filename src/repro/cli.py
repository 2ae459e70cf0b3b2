"""Command-line interface: regenerate paper artifacts and render scenes.

Usage::

    repro list                            # available experiments/scenes
    repro experiments --list              # experiment ids + descriptions
    repro experiments fig15               # regenerate one figure/table
    repro experiments --all --jobs 4      # engine: cell dedup + parallel fan-out
    repro experiments --all --only 'fig1*' --out out/   # subset + artifacts
    repro experiments fig03 --no-cache    # force recomputation
    repro sweep list                      # predefined scenario sweeps
    repro sweep run --spec motion_stress --jobs 4 --out out/
    repro sweep report out/motion_stress.json
    repro cache info                      # cache location and per-namespace size
    repro cache clear                     # drop every cached artifact
    repro cache clear --namespace tenants/acme   # one tenant's rows only
    repro serve --port 7341 --workers 4   # multi-tenant simulation service
    repro loadgen --port 7341 --verify --out BENCH_service.json
    repro bench --list                    # named performance benchmarks
    repro bench --quick --out BENCH_pipeline.json   # CI identity+floor gate
    repro render family out.ppm           # render one frame to a PPM
    repro simulate neo family qhd         # one system/scene/resolution
    repro systems list                    # registered hardware backends
    repro systems show neo-s              # one backend's knobs and overlays
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np


def _cmd_list(_args) -> int:
    from .experiments import list_experiments
    from .hw.system import registered_systems
    from .scene.datasets import SCENE_SPECS

    print("experiments:", ", ".join(list_experiments()))
    print("scenes:     ", ", ".join(sorted(SCENE_SPECS)))
    print("systems:    ", ", ".join(registered_systems()))
    return 0


def _cmd_systems(args) -> int:
    from .hw.system import get_system, iter_systems

    if args.systems_command == "list":
        specs = list(iter_systems())
        if args.ids:
            for spec in specs:
                print(spec.name)
            return 0
        width = max(len(spec.name) for spec in specs)
        for spec in specs:
            origin = f"= {spec.base} + overlay" if spec.base else spec.model_cls.__name__
            print(
                f"{spec.name:{width}s}  {origin:24s} "
                f"[{spec.dram_policy}]  {spec.description}"
            )
        return 0

    # show
    try:
        spec = get_system(args.name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    print(f"system:      {spec.name}")
    print(f"description: {spec.description}")
    print(f"model:       {spec.model_cls.__name__}")
    print(f"dram policy: {spec.dram_policy} "
          f"({'honors --bandwidth' if spec.dram_policy == 'edge' else 'fixed native memory system'})")
    if spec.base:
        print(f"base:        {spec.base}")
        overlay = ", ".join(f"{k}={v!r}" for k, v in spec.overrides)
        print(f"overlay:     {overlay}")
    print("model kwargs:")
    for name, default in spec.model_fields().items():
        print(f"  {name:22s} default {default}")
    print(f"config fields ({spec.config_cls.__name__}):")
    for name, default in spec.config_fields().items():
        print(f"  {name:22s} default {default}")
    return 0


def _cmd_experiments(args) -> int:
    from .experiments import experiment_descriptions, list_experiments
    from .experiments.engine import ExperimentEngine
    from .runtime import ResultCache

    if args.list:
        for name, description in experiment_descriptions().items():
            print(f"{name:16s} {description}")
        return 0

    if args.all:
        names = list_experiments()
    elif args.names:
        names = args.names
    else:
        print("error: name at least one experiment or pass --all", file=sys.stderr)
        return 2

    if args.only:
        import fnmatch

        patterns = [p.strip() for p in args.only.split(",") if p.strip()]
        names = [
            n for n in names if any(fnmatch.fnmatch(n.lower(), p.lower()) for p in patterns)
        ]
        if not names:
            print(f"error: no selected experiment matches --only {args.only!r}",
                  file=sys.stderr)
            return 2

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    engine = ExperimentEngine(jobs=args.jobs, frames=args.frames, cache=cache)
    try:
        run = engine.run(names)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    for outcome in run.outcomes:
        print(outcome.result.to_text())
        origin = "cache hit" if outcome.from_cache else f"computed in {outcome.elapsed_s:.2f}s"
        print(f"-- {outcome.name}: {origin}")
        print()
    hits = sum(1 for o in run.outcomes if o.from_cache)
    cells = run.cells
    print(
        f"{len(run.outcomes)} experiment(s) in {run.elapsed_s:.2f}s wall "
        f"(jobs={args.jobs}, {hits} from cache, cache "
        f"{'disabled' if cache is None else 'at ' + str(cache.root)})"
    )
    if cells.requested:
        print(
            f"cells: {cells.requested} declared, {cells.unique} unique "
            f"({cells.deduplicated} deduped across figures), "
            f"{cells.hits} cache hits, {cells.computed} simulated"
        )
    if args.out:
        _write_experiment_files(run.outcomes, args.out)
    if args.json:
        payload = {
            "elapsed_s": run.elapsed_s,
            "jobs": args.jobs,
            "cells": {
                "declared": cells.requested,
                "unique": cells.unique,
                "deduplicated": cells.deduplicated,
                "cache_hits": cells.hits,
                "simulated": cells.computed,
            },
            "experiments": [
                {
                    "name": o.name,
                    "from_cache": o.from_cache,
                    "elapsed_s": o.elapsed_s,
                    "rows": o.result.rows,
                }
                for o in run.outcomes
            ],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")
    if args.require_cached and not run.all_cached:
        recomputed = sum(1 for o in run.outcomes if not o.from_cache)
        print(
            f"error: --require-cached but {recomputed} experiment(s) were recomputed "
            f"({cells.computed} cell(s) simulated)",
            file=sys.stderr,
        )
        return 1
    return 0


def _write_experiment_files(outcomes, out_dir: str) -> None:
    """Write <name>.json/.csv artifacts under ``out_dir`` and announce them.

    Artifacts are deterministic — a pure function of (result, code version) —
    so serial/parallel and cold/warm runs write byte-identical files.
    """
    import os

    for outcome in outcomes:
        base = os.path.join(out_dir, outcome.result.name)
        for path in (
            outcome.result.write_json(base + ".json"),
            outcome.result.write_csv(base + ".csv"),
        ):
            print(f"wrote {path}")


def _cmd_sweep(args) -> int:
    from .runtime import ResultCache
    from .sweeps import SweepReport, SweepRunner, list_sweep_specs, resolve_spec
    from .sweeps.registry import PREDEFINED

    if args.sweep_command == "list":
        for name in list_sweep_specs():
            spec = PREDEFINED[name]
            print(f"{name:18s} {spec.num_points:3d} points  {spec.description}")
        return 0

    if args.sweep_command == "report":
        try:
            report = SweepReport.load_json(args.source)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot load sweep report {args.source!r}: {exc}", file=sys.stderr)
            return 2
        print(report.to_markdown())
        if args.out:
            _write_sweep_files(report, args.out)
        return 0

    # run
    try:
        spec = resolve_spec(args.spec)
    except (KeyError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    runner = SweepRunner(jobs=args.jobs, cache=cache)
    outcome = runner.run(spec)
    report = outcome.report

    print(report.to_markdown(max_rows=args.max_rows))
    print()
    print(
        f"{report.num_points} point(s) in {outcome.elapsed_s:.2f}s wall "
        f"(jobs={args.jobs}; cells: {outcome.hits} from cache, {outcome.misses} computed; "
        f"cache {'disabled' if cache is None else 'at ' + str(cache.root)})"
    )
    if args.out:
        _write_sweep_files(report, args.out)
    if args.require_cached and not outcome.all_cached:
        print(
            f"error: --require-cached but {outcome.misses} cell(s) were recomputed",
            file=sys.stderr,
        )
        return 1
    return 0


def _write_sweep_files(report, out_dir: str) -> None:
    """Write <name>.json/.csv/.md under ``out_dir`` and announce the paths."""
    import os

    base = os.path.join(out_dir, report.name)
    for path in (
        report.write_json(base + ".json"),
        report.write_csv(base + ".csv"),
        report.write_markdown(base + ".md"),
    ):
        print(f"wrote {path}")


def _cmd_bench(args) -> int:
    from .bench import bench_descriptions, list_benchmarks, run_benchmarks, write_bench_json

    if args.list:
        for name, description in bench_descriptions().items():
            print(f"{name:18s} {description}")
        return 0

    # Validate names up front so a KeyError raised *inside* a benchmark
    # body surfaces as a traceback, not a bogus usage error.
    available = list_benchmarks()
    unknown = [n for n in (args.names or []) if n not in available]
    if unknown:
        print(
            f"error: unknown benchmark(s) {', '.join(unknown)}; "
            f"available: {', '.join(available)}",
            file=sys.stderr,
        )
        return 2
    records = run_benchmarks(args.names or None, quick=args.quick, profile=args.profile)

    for record in records:
        print(record.to_text())
        if args.profile:
            for row in record.detail.get("profile", [])[:5]:
                print(
                    f"    {row['cumtime_s']*1e3:9.1f} ms cum  "
                    f"{row['tottime_s']*1e3:9.1f} ms self  "
                    f"{row['ncalls']:>8} calls  {row['function']}"
                )
    if args.out:
        print(f"wrote {write_bench_json(args.out, records, args.quick)}")

    failed = [r for r in records if not r.passed]
    if failed and not args.no_gate:
        for record in failed:
            reason = (
                "diverged from the scalar reference"
                if not record.identical
                else f"{record.speedup:.2f}x below the {record.floor:.2f}x floor"
            )
            print(f"error: benchmark {record.name} {reason}", file=sys.stderr)
        return 1
    return 0


def _cmd_cache(args) -> int:
    from .runtime import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.action == "info":
        info = cache.info()
        print(f"root:         {info['root']}")
        print(f"code version: {info['code_version']}")
        if not info["namespaces"]:
            print("(empty)")
        width = max((len(n) for n in info["namespaces"]), default=12)
        for name, stats in info["namespaces"].items():
            print(
                f"  {name:{width}s} {stats['entries']:5d} entries  "
                f"{stats['bytes'] / 1e6:8.2f} MB"
            )
        print(f"total:        {info['total_entries']} entries, {info['total_bytes'] / 1e6:.2f} MB")
    else:  # clear
        removed = cache.clear(namespace=args.namespace)
        scope = f" from namespace {args.namespace!r}" if args.namespace else ""
        print(
            f"removed {removed} cached entr{'y' if removed == 1 else 'ies'}"
            f"{scope} from {cache.root}"
        )
    return 0


def _cmd_serve(args) -> int:
    from .service import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        default_timeout_s=args.timeout,
        cache_dir=None if args.no_cache else args.cache_dir,
    )
    try:
        serve(config, announce=lambda line: print(line, flush=True))
    except KeyboardInterrupt:
        print("repro serve: interrupted, shutting down", file=sys.stderr)
    return 0


def _cmd_loadgen(args) -> int:
    import asyncio

    from .service import LoadGenConfig, run_loadgen, summarize, write_service_bench

    def _csv(value: str) -> tuple[str, ...]:
        return tuple(part.strip() for part in value.split(",") if part.strip())

    config = LoadGenConfig(
        host=args.host,
        port=args.port,
        requests=args.requests,
        rate=args.rate,
        tenants=args.tenants,
        seed=args.seed,
        frames=args.frames,
        scenes=_csv(args.scenes),
        systems=_csv(args.systems),
        resolutions=_csv(args.resolutions),
        pool_size=args.pool_size,
        timeout_s=args.timeout,
        retries=args.retries,
        shared_cache=args.shared_cache,
        wait_server_s=args.wait_server,
    )
    try:
        result = asyncio.run(run_loadgen(config, verify=args.verify))
    except OSError as exc:
        print(
            f"error: cannot reach server at {config.host}:{config.port}: {exc}",
            file=sys.stderr,
        )
        return 2
    print(summarize(result))
    if args.out:
        print(f"wrote {write_service_bench(args.out, result)}")
    if not result.ok:
        print(
            "error: replay saw service errors or verification mismatches",
            file=sys.stderr,
        )
        return 1
    server = result.server_stats.get("metrics", {})
    if args.assert_coalesce and not server.get("coalesced", 0):
        print(
            "error: --assert-coalesce but no request coalesced into a shared "
            "execution (traffic had no concurrent duplicates?)",
            file=sys.stderr,
        )
        return 1
    return 0


def write_ppm(path: str, image: np.ndarray) -> None:
    """Write an HxWx3 float image in [0, 1] as a binary PPM (P6)."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError("expected an HxWx3 image")
    data = (np.clip(image, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    height, width = data.shape[:2]
    with open(path, "wb") as handle:
        handle.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        handle.write(data.tobytes())


def _cmd_render(args) -> int:
    from .core.strategies import make_strategy
    from .pipeline.renderer import Renderer
    from .scene.datasets import default_trajectory, load_scene

    scene = load_scene(args.scene, num_gaussians=args.gaussians)
    cameras = default_trajectory(
        args.scene, num_frames=args.frame + 1, width=args.width, height=args.height
    )
    renderer = Renderer(scene, strategy=make_strategy(args.strategy))
    records = renderer.render_sequence(cameras)
    write_ppm(args.output, records[-1].image)
    stats = records[-1].stats
    print(
        f"wrote {args.output}: {args.width}x{args.height}, "
        f"{stats.num_visible} visible Gaussians, {stats.num_pairs} pairs, "
        f"strategy={args.strategy}"
    )
    return 0


def _cmd_simulate(args) -> int:
    from .experiments.engine import SimJob

    try:
        job = SimJob.make(
            args.system,
            args.scene,
            args.resolution,
            frames=args.frames,
            bandwidth_gbps=args.bandwidth,
        )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    report = job.simulate()
    traffic = report.total_traffic
    print(f"system:      {report.system}")
    print(f"scene:       {report.scene} @ {args.resolution}")
    print(f"throughput:  {report.fps:.1f} FPS (mean latency {report.mean_latency_s * 1e3:.2f} ms)")
    print(f"traffic/60f: {report.traffic_gb_for(60):.1f} GB")
    fracs = traffic.fractions()
    print(
        "stage split: "
        f"feature {fracs['feature_extraction']:.0%}, "
        f"sorting {fracs['sorting']:.0%}, "
        f"raster {fracs['rasterization']:.0%}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Neo (ASPLOS 2026) reproduction: experiments, rendering, simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments, scenes, and systems")

    exp_p = sub.add_parser(
        "experiments",
        help="run experiments through the shared plan/execute engine "
             "(cross-figure cell dedup, cell-granular parallelism, disk cache)",
    )
    exp_p.add_argument("names", nargs="*", help="experiment ids (e.g. fig15 table2)")
    exp_p.add_argument("--all", action="store_true", help="run every registered experiment")
    exp_p.add_argument(
        "--list", action="store_true",
        help="list registered experiments with their one-line descriptions",
    )
    exp_p.add_argument(
        "--only", default=None,
        help="comma-separated glob filter on the selected ids (e.g. 'fig1*,table*')",
    )
    exp_p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for cell-granular fan-out (default 1)",
    )
    exp_p.add_argument(
        "--frames", type=int, default=None,
        help="override frames per sequence (drivers with pinned frame counts ignore it)",
    )
    exp_p.add_argument("--no-cache", action="store_true", help="bypass the result cache")
    exp_p.add_argument("--cache-dir", default=None, help="cache root (default .repro_cache)")
    exp_p.add_argument(
        "--out", default=None,
        help="directory to write deterministic per-experiment <name>.json/.csv artifacts into",
    )
    exp_p.add_argument("--json", default=None, help="also write results/timings to a JSON file")
    exp_p.add_argument(
        "--require-cached", action="store_true",
        help="exit nonzero unless every experiment was served from the cache "
             "(CI warm-run assertion)",
    )

    sweep_p = sub.add_parser(
        "sweep",
        help="declarative scenario sweeps over scenes/trajectories/strategies/hardware",
    )
    sweep_sub = sweep_p.add_subparsers(dest="sweep_command", required=True)

    sweep_run = sweep_sub.add_parser("run", help="execute a sweep spec (name or JSON file)")
    sweep_run.add_argument(
        "--spec", required=True,
        help="predefined sweep name (see `repro sweep list`) or path to a spec .json",
    )
    sweep_run.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    sweep_run.add_argument("--no-cache", action="store_true", help="bypass the result cache")
    sweep_run.add_argument("--cache-dir", default=None, help="cache root (default .repro_cache)")
    sweep_run.add_argument(
        "--out", default=None,
        help="directory to write <name>.json/.csv/.md report files into",
    )
    sweep_run.add_argument(
        "--max-rows", type=int, default=None,
        help="cap the rows printed to stdout (files always get all rows)",
    )
    sweep_run.add_argument(
        "--require-cached", action="store_true",
        help="exit nonzero unless every cell was served from the cache "
             "(CI warm-run assertion)",
    )

    sweep_sub.add_parser("list", help="list predefined sweeps")

    sweep_report = sweep_sub.add_parser(
        "report", help="render a previously written sweep report JSON"
    )
    sweep_report.add_argument("source", help="path to a <name>.json written by `sweep run --out`")
    sweep_report.add_argument(
        "--out", default=None,
        help="also (re)write <name>.json/.csv/.md report files into this directory",
    )

    cache_p = sub.add_parser("cache", help="inspect or clear the result cache")
    cache_p.add_argument("action", choices=("info", "clear"))
    cache_p.add_argument("--cache-dir", default=None, help="cache root (default .repro_cache)")
    cache_p.add_argument(
        "--namespace", default=None,
        help="clear only this namespace, as printed by `cache info` "
             "(e.g. reports, tenants/acme, tenants/acme/reports)",
    )

    serve_p = sub.add_parser(
        "serve",
        help="multi-tenant simulation service: cross-client job coalescing, "
             "bounded-queue backpressure, warm scene residency, per-tenant caches",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=7341, help="0 picks a free port")
    serve_p.add_argument(
        "--workers", type=int, default=2, help="simulation worker pool size (default 2)"
    )
    serve_p.add_argument(
        "--queue-limit", type=int, default=64,
        help="pending executions admitted before requests are rejected (default 64)",
    )
    serve_p.add_argument(
        "--timeout", type=float, default=60.0,
        help="default per-request timeout in seconds (requests may override)",
    )
    serve_p.add_argument(
        "--cache-dir", default=".repro_cache",
        help="root for per-tenant result namespaces (default .repro_cache)",
    )
    serve_p.add_argument(
        "--no-cache", action="store_true", help="serve without any disk persistence"
    )

    loadgen_p = sub.add_parser(
        "loadgen",
        help="replay seeded open-loop mixed traffic against a running server "
             "and write the BENCH_service.json artifact",
    )
    loadgen_p.add_argument("--host", default="127.0.0.1")
    loadgen_p.add_argument("--port", type=int, default=7341)
    loadgen_p.add_argument("--requests", type=int, default=120)
    loadgen_p.add_argument(
        "--rate", type=float, default=150.0, help="open-loop arrival rate, req/s"
    )
    loadgen_p.add_argument("--tenants", type=int, default=4)
    loadgen_p.add_argument("--seed", type=int, default=0)
    loadgen_p.add_argument("--frames", type=int, default=2)
    loadgen_p.add_argument(
        "--scenes", default="family,horse", help="comma-separated scene presets"
    )
    loadgen_p.add_argument(
        "--systems", default="neo,gscore,orin", help="comma-separated system ids"
    )
    loadgen_p.add_argument("--resolutions", default="hd")
    loadgen_p.add_argument(
        "--pool-size", type=int, default=10,
        help="distinct cells sampled from the grid (smaller = more overlap)",
    )
    loadgen_p.add_argument("--timeout", type=float, default=120.0)
    loadgen_p.add_argument(
        "--retries", type=int, default=3, help="rejection retries per request"
    )
    loadgen_p.add_argument(
        "--shared-cache", action="store_true",
        help="opt every tenant into the shared cache namespace",
    )
    loadgen_p.add_argument(
        "--wait-server", type=float, default=0.0,
        help="seconds to keep retrying the initial connect (CI startup races)",
    )
    loadgen_p.add_argument(
        "--out", default=None, help="write the BENCH_service.json artifact here"
    )
    loadgen_p.add_argument(
        "--verify", action="store_true",
        help="re-run every responded cell directly through execute_cells and "
             "require byte-identical reports",
    )
    loadgen_p.add_argument(
        "--assert-coalesce", action="store_true",
        help="exit nonzero unless at least one request coalesced (CI gate)",
    )

    bench_p = sub.add_parser(
        "bench",
        help="named performance benchmarks: vectorized paths vs frozen scalar "
             "references, with a bit-identity + speedup-floor gate",
    )
    bench_p.add_argument("names", nargs="*", help="benchmark names (default: all)")
    bench_p.add_argument(
        "--list", action="store_true", help="list benchmarks with descriptions"
    )
    bench_p.add_argument(
        "--quick", action="store_true",
        help="reduced workloads for CI smoke (floors unchanged)",
    )
    bench_p.add_argument(
        "--out", default=None, help="write the BENCH_*.json artifact to this path"
    )
    bench_p.add_argument(
        "--no-gate", action="store_true",
        help="report results but exit 0 even on identity/floor failures",
    )
    bench_p.add_argument(
        "--profile", action="store_true",
        help="run each benchmark under cProfile and record the top functions "
             "by cumulative time in its detail (timings include tracing "
             "overhead; don't commit profiled artifacts)",
    )

    render_p = sub.add_parser("render", help="render one frame to a PPM image")
    render_p.add_argument("scene", help="scene preset name")
    render_p.add_argument("output", help="output .ppm path")
    render_p.add_argument("--width", type=int, default=480)
    render_p.add_argument("--height", type=int, default=270)
    render_p.add_argument("--frame", type=int, default=0, help="trajectory frame index")
    render_p.add_argument("--gaussians", type=int, default=3000)
    render_p.add_argument(
        "--strategy", default="full",
        choices=("full", "periodic", "background", "hierarchical", "neo"),
    )

    from .hw.system import registered_systems

    sim_p = sub.add_parser("simulate", help="simulate one system on one workload")
    sim_p.add_argument("system", choices=registered_systems())
    sim_p.add_argument("scene")
    sim_p.add_argument("resolution", choices=("hd", "fhd", "qhd", "uhd"))
    sim_p.add_argument("--frames", type=int, default=12)
    sim_p.add_argument("--bandwidth", type=float, default=51.2, help="DRAM GB/s")

    systems_p = sub.add_parser(
        "systems", help="inspect the pluggable hardware-backend registry"
    )
    systems_sub = systems_p.add_subparsers(dest="systems_command", required=True)
    systems_list = systems_sub.add_parser(
        "list", help="registered systems: id, origin, DRAM policy, description"
    )
    systems_list.add_argument(
        "--ids", action="store_true", help="print bare system ids only (script-friendly)"
    )
    systems_show = systems_sub.add_parser(
        "show", help="one system's metadata, accepted kwargs, and config fields"
    )
    systems_show.add_argument("name", help="registered system id (see `repro systems list`)")

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "experiments": _cmd_experiments,
        "sweep": _cmd_sweep,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
        "bench": _cmd_bench,
        "render": _cmd_render,
        "simulate": _cmd_simulate,
        "systems": _cmd_systems,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
