"""Benchmark entry point: one workload per process, one JSON line out.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload render_exact --seed 1 --seconds 30 --trace 0

Every workload is a closed loop: one op after the other from this process.
``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced ops and prints the per-layer
metrics: spans around calls into each layer's public entry points, their
self times, work counters, and the tracing overhead.  An op's time is its
busy time (:func:`measure.since`), and every timing is in reference-machine
units (see :mod:`calibration`).  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, fixed before NumPy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from calibration import MIXES, CalibrationKernel, pair_scales  # noqa: E402
from measure import Tracer, peak_rss_mb, since, start_clock, tail  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Traced ops must explain the untraced op time within these shares.
COVERAGE_RANGE = (0.8, 1.25)

WORKLOADS = ("render_exact", "render_neo", "simulate")


def _load(workload: str):
    """``(setup, layer_metrics)`` of a closed-loop workload."""
    if workload in ("render_exact", "render_neo"):
        import render_workloads as module

        setup = module.setup_exact if workload == "render_exact" else module.setup_neo
        return setup, module.layer_metrics
    import simulate_workload as module

    return module.setup, module.layer_metrics


def timed_setups(setup, seed: int, kernel: CalibrationKernel):
    """Set up ``SETUP_REPEATS`` times; return the last session and the times.

    Each time is in reference-machine units, scaled by the calibration
    samples taken just before and after that set-up.
    """
    times, before, session = [], [], None
    for _ in range(SETUP_REPEATS):
        session = None
        gc.collect()
        kernel.sample()
        before.append(len(kernel.samples_ms) - 1)
        start = start_clock()
        session = setup(seed)
        times.append(since(start)[1])
    kernel.sample()
    return session, [t * f for t, f in zip(times, pair_scales(kernel.samples_ms, before))]


def closed_loop(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one closed-loop workload for ``seconds`` and summarize it."""
    setup, layer_metrics = _load(workload)
    kernel = CalibrationKernel(MIXES[workload])
    session, setup_times = timed_setups(setup, seed, kernel)
    tracer = Tracer()

    plain_s: list[float] = []
    plain_wall_s: list[float] = []
    plain_before: list[int] = []  # index of the calibration sample taken before each
    traced_s: list[float] = []
    kept: dict[int, object] = {}
    counts: list[dict[str, float]] = []
    failures: list[str] = []
    attempted = 0
    k = session.first_op
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or attempted < session.min_ops:
        traced = trace and attempted % 2 == 1
        session.prepare(k)
        gc.collect()
        kernel.sample()
        attempted += 1
        start = start_clock()
        try:
            result = session.traced_op(k, tracer) if traced else session.op(k)
        except Exception as exc:  # an op that raises is a failed op; keep measuring
            failures.append(f"op {k}: {type(exc).__name__}: {exc}")
            k += 1
            continue
        wall, elapsed = since(start)
        if traced:
            traced_s.append(elapsed)
        else:
            plain_s.append(elapsed)
            plain_wall_s.append(wall)
            plain_before.append(len(kernel.samples_ms) - 1)
        if session.keep(k):
            kept[k] = result
        if trace and attempted <= session.min_ops:
            counts.append(session.counts(result))
        k += 1
        del result
    kernel.sample()  # the sample after the last op

    for op, result in sorted(kept.items()):
        failures.extend(session.check(op, result))
    scale = kernel.scale()
    summary = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "calib_ms": kernel.calib_ms(),
        "scale": scale,
    }
    if not trace:
        ref_s = [t * f for t, f in zip(plain_s, pair_scales(kernel.samples_ms, plain_before))]
        tail_s, tail_pct = tail(ref_s)
        summary["samples"] = len(plain_s)
        summary["wall_p50_ms"] = statistics.median(plain_wall_s) * 1e3
        summary["tail_pct"] = tail_pct
        summary["metrics"] = {
            "latency_ms_p50": statistics.median(ref_s) * 1e3,
            "latency_ms_tail": tail_s * 1e3,
            "throughput_per_s": len(ref_s) / sum(ref_s),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
        }
        return summary

    n_traced = len(traced_s)
    per_op_ms = {name: total * scale / n_traced for name, total in tracer.span_ms.items()}
    per_op_ms.update(
        {f"{name}.self": total * scale / n_traced for name, total in tracer.self_ms.items()}
    )
    mean_counts = {name: sum(c[name] for c in counts) / len(counts) for name in counts[0]}
    layers = layer_metrics(per_op_ms, mean_counts)
    plain_mean = sum(plain_s) / len(plain_s) * 1e3 * scale
    self_total = sum(v for name, v in per_op_ms.items() if name.endswith(".self"))
    coverage = self_total / plain_mean
    if not COVERAGE_RANGE[0] <= coverage <= COVERAGE_RANGE[1]:
        failures.append(
            f"layer self times explain {coverage:.0%} of the untraced op time "
            f"(allowed {COVERAGE_RANGE[0]:.0%}-{COVERAGE_RANGE[1]:.0%})"
        )
        summary["failed"] = len(failures)
    summary["coverage"] = coverage
    plain_p50 = statistics.median(plain_s)
    layers["calib.ms"] = kernel.calib_ms()
    layers["wall.latency_ms_p50"] = statistics.median(plain_wall_s) * 1e3
    layers["trace.overhead_pct"] = 100.0 * (statistics.median(traced_s) - plain_p50) / plain_p50
    summary["metrics"] = layers
    return summary


def result_line(summary: dict, metric_names: list[tuple[str, str]]) -> dict:
    """The final JSON object, with exactly the declared metrics.

    A traced run reports every per-layer metric; layers its workload never
    calls read 0.
    """
    values = summary["metrics"]
    return {
        "correct": summary["failed"] == 0,
        "attempted": int(summary["attempted"]),
        "failed": int(summary["failed"]),
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in metric_names
        },
    }


def declared_metrics(trace: bool) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return [(m["name"], m["unit"]) for m in group]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    metric_names = declared_metrics(bool(args.trace))

    summary = closed_loop(args.workload, args.seed, args.seconds, bool(args.trace))

    if args.trace:
        print(f"# {args.workload}: layer self times explain {summary['coverage']:.1%} "
              f"of the untraced op time")
    else:
        print(f"# {args.workload}: {summary['samples']} timed ops, tail = "
              f"p{summary['tail_pct']:.1f}, raw p50 {summary['wall_p50_ms']:.3f} ms, "
              f"calib {summary['calib_ms']:.3f} ms "
              f"(x{summary['scale']:.3f} to reference units)")
    for failure in summary["failures"]:
        print(f"# FAILED {failure}")
    print(json.dumps(result_line(summary, metric_names)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
