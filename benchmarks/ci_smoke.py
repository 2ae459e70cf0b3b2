"""CI benchmark smoke: fig03 serial vs parallel, with equality checks.

Timed probes written to a JSON artifact:

* **Experiment level** — a few fast drivers (``fig03`` plus companions, so
  the pool genuinely fans out) through the
  :class:`~repro.experiments.ExperimentEngine` at ``jobs=1`` vs ``jobs=N``
  with caching disabled; row lists must be identical.
* **Vectorized core** — every base system's vectorized sequence core
  against the per-frame scalar loop: bit-identical reports above a
  speedup floor.

Not a pytest module on purpose: it is invoked directly by the workflow's
benchmark job (``python benchmarks/ci_smoke.py --out timing.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def experiment_smoke(experiments: list[str], jobs: int, frames: int) -> dict:
    from repro.experiments import ExperimentEngine

    timings = {}
    rows = {}
    for label, n_jobs in (("serial", 1), ("parallel", jobs)):
        engine = ExperimentEngine(jobs=n_jobs, frames=frames, cache=None)
        start = time.perf_counter()
        outcomes = engine.run(experiments).outcomes
        timings[label] = time.perf_counter() - start
        rows[label] = [o.result.rows for o in outcomes]

    return {
        "experiments": experiments,
        "frames": frames,
        "serial_s": timings["serial"],
        "parallel_s": timings["parallel"],
        "speedup": timings["serial"] / timings["parallel"] if timings["parallel"] else 0.0,
        "rows_identical": rows["serial"] == rows["parallel"],
        "num_rows": sum(len(r) for r in rows["serial"]),
    }


def vectorized_smoke(num_frames: int = 200, floor: float | None = None) -> dict:
    """Vectorized sequence core vs the per-frame scalar loop, per system.

    Reuses the micro-bench in ``benchmarks/test_vectorized_core.py`` on its
    synthetic long trajectory: every base system must produce bit-identical
    reports and clear the bench's speedup floor (the equations vectorize
    ~20x; end-to-end the shared report-construction cost caps the visible
    win).
    """
    from test_vectorized_core import SPEEDUP_FLOOR, SYSTEMS, measure

    if floor is None:
        floor = SPEEDUP_FLOOR
    per_system = [measure(system, num_frames) for system in SYSTEMS]
    return {
        "frames": num_frames,
        "floor": floor,
        "systems": per_system,
        "identical": all(s["identical"] for s in per_system),
        "above_floor": all(s["speedup"] > floor for s in per_system),
    }


def cached_smoke(experiments: list[str], frames: int, cache_dir: str) -> dict:
    """Run the same drivers through the disk cache and report hit counts.

    The CI workflow persists ``cache_dir`` across runs (keyed on the package
    source digest), so on a warm run this phase is pure cache hits and the
    artifact records the skip; the equality probes above stay uncached on
    purpose — recomputing both sides is their whole point.
    """
    from repro.experiments import ExperimentEngine
    from repro.runtime import ResultCache

    cache = ResultCache(cache_dir)
    start = time.perf_counter()
    outcomes = ExperimentEngine(jobs=1, frames=frames, cache=cache).run(experiments).outcomes
    return {
        "cache_dir": cache_dir,
        "elapsed_s": time.perf_counter() - start,
        "hits": sum(1 for o in outcomes if o.from_cache),
        "misses": sum(1 for o in outcomes if not o.from_cache),
    }


def run_smoke(experiments: list[str], jobs: int, frames: int, cache_dir: str | None) -> dict:
    summary = {
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "experiment_level": experiment_smoke(experiments, jobs, frames),
        "vectorized_core": vectorized_smoke(),
    }
    if cache_dir:
        summary["cached_level"] = cached_smoke(experiments, frames, cache_dir)
    summary["ok"] = (
        summary["experiment_level"]["rows_identical"]
        and summary["vectorized_core"]["identical"]
        and summary["vectorized_core"]["above_floor"]
    )
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--experiments",
        default="fig03,fig05,table3",
        help="comma-separated list; several experiments so the pool genuinely fans out",
    )
    parser.add_argument("--jobs", type=int, default=max(2, (os.cpu_count() or 2)))
    parser.add_argument("--frames", type=int, default=6)
    parser.add_argument("--out", default="timing.json")
    parser.add_argument(
        "--cache-dir", default=None,
        help="also run a disk-cached pass against this directory and report hits "
             "(CI persists it across runs, so warm runs skip recomputation)",
    )
    args = parser.parse_args(argv)

    summary = run_smoke(args.experiments.split(","), args.jobs, args.frames, args.cache_dir)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
    print(json.dumps(summary, indent=2))
    if not summary["ok"]:
        print(
            "FAIL: parallel output differs from serial output, or the "
            "vectorized core diverged from / fell behind the per-frame loop",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
