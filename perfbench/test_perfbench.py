"""The benchmark's own tests: statistics, calibration math, inputs, and spec.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for path in (BENCH_DIR, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import calibration  # noqa: E402
import render_workloads  # noqa: E402
import simulate_workload  # noqa: E402
from measure import METRIC_NAME, Tracer, interposed, since, start_clock, tail  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MANIFEST = json.loads((BENCH_DIR / "manifest.json").read_text())


# ----------------------------------------------------------------------
# Tail percentile rule
# ----------------------------------------------------------------------
def test_tail_leaves_exactly_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    value, pct = tail(values)
    assert value == 90.0
    assert pct == 90.0
    assert sum(v > value for v in values) == 10


def test_tail_percentile_follows_the_sample_count():
    value, pct = tail([float(v) for v in range(200, 0, -1)])
    assert (value, pct) == (190.0, 95.0)
    value, pct = tail([3.0] * 5 + [1.0] * 6)
    assert pct == pytest.approx(100 / 11)
    assert value == 1.0


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail([1.0] * 10)


def test_busy_time_leaves_out_time_without_the_cpu():
    start = start_clock()
    time.sleep(0.05)
    wall, busy = since(start)
    assert wall >= 0.05
    assert busy < 0.02


# ----------------------------------------------------------------------
# Calibration scaling
# ----------------------------------------------------------------------
def test_scale_factor_is_reference_over_calibration():
    ref = calibration.CALIB_REF_MS
    assert 10.0 * calibration.scale_factor(ref) == pytest.approx(10.0)
    # A machine half as fast takes twice as long on both the op and the kernel.
    assert 20.0 * calibration.scale_factor(2 * ref) == pytest.approx(10.0)
    assert calibration.scale_factor(ref / 2) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        calibration.scale_factor(0.0)


def test_kernel_scale_uses_the_median_sample():
    kernel = calibration.CalibrationKernel(calibration.MIXES["render_exact"])
    kernel.samples_ms[:] = [1.0, 100.0, calibration.CALIB_REF_MS * 2]
    assert kernel.calib_ms() == calibration.CALIB_REF_MS * 2
    assert kernel.scale() == pytest.approx(0.5)
    assert kernel.sample() > 0.0
    assert len(kernel.samples_ms) == 4


def test_every_mix_reads_the_reference_on_the_reference_machine():
    for mix in calibration.MIXES.values():
        kernel = calibration.CalibrationKernel(mix)
        assert kernel.record(calibration.PART_REF_MS) == pytest.approx(calibration.CALIB_REF_MS)
        # Every part twice as slow: the yardstick doubles, whatever the mix.
        doubled = {name: 2 * ms for name, ms in calibration.PART_REF_MS.items()}
        assert kernel.record(doubled) == pytest.approx(2 * calibration.CALIB_REF_MS)
    with pytest.raises(ValueError):
        calibration.CalibrationKernel({"sort": 0.5, "python": 0.4})


def test_a_mix_weights_the_parts_by_its_shares():
    mix = {"sort": 0.0, "gather": 0.0, "python": 1.0}
    kernel = calibration.CalibrationKernel(mix)
    slow_sort = dict(calibration.PART_REF_MS, sort=10 * calibration.PART_REF_MS["sort"])
    assert kernel.record(slow_sort) == pytest.approx(calibration.CALIB_REF_MS)


def test_pair_scales_use_the_samples_around_each_op():
    ref = calibration.CALIB_REF_MS
    samples = [ref, ref, 4 * ref, 4 * ref]
    # Op 0 sits between samples 0 and 1, op 1 between 1 and 2 (the machine
    # slowed down during it), op 2 between 2 and 3.
    assert calibration.pair_scales(samples, [0, 1, 2]) == [
        pytest.approx(1.0),
        pytest.approx(0.5),
        pytest.approx(0.25),
    ]


def test_calibration_reference_is_pinned_in_the_manifest():
    assert MANIFEST["calib_ref_ms"] == calibration.CALIB_REF_MS
    assert MANIFEST["calib_part_ref_ms"] == calibration.PART_REF_MS
    assert MANIFEST["calib_mixes"] == calibration.MIXES
    assert set(calibration.MIXES) == {w["name"] for w in SPEC["workloads"]}


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def test_render_inputs_repeat_per_seed():
    assert render_workloads.generate_inputs(7) == render_workloads.generate_inputs(7)
    assert len({str(render_workloads.generate_inputs(s)) for s in range(8)}) > 1
    for seed in range(8):
        inputs = render_workloads.generate_inputs(seed)
        lo, hi = render_workloads.SPEED_RANGE
        assert lo <= inputs["speed"] <= hi
        first = render_workloads.WARMUP_OPS
        assert all(first <= k < first + render_workloads.SLICE_FRAMES for k in inputs["checked"])


def test_render_ops_ping_pong_over_the_slice():
    frames = [render_workloads.slice_position(k, frames=4) for k in range(9)]
    assert frames == [0, 1, 2, 3, 2, 1, 0, 1, 2]


def test_simulate_inputs_repeat_per_seed():
    assert simulate_workload.generate_inputs(3) == simulate_workload.generate_inputs(3)
    assert simulate_workload.op_cells(3, 5) == simulate_workload.op_cells(3, 5)
    speeds = simulate_workload.generate_inputs(3)["speeds"]
    assert len(set(speeds)) == len(speeds)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class _Owner:
    def work(self, x):
        return x + 1


def test_interposed_spans_report_self_time_and_restore():
    owner = _Owner()
    tracer = Tracer()
    with interposed(tracer, [(owner, "work", "child")]):
        with tracer.span("root"):
            assert owner.work(1) == 2
    assert "work" not in vars(owner)
    assert tracer.calls == {"child": 1, "root": 1}
    assert tracer.self_ms["root"] == pytest.approx(
        tracer.span_ms["root"] - tracer.span_ms["child"]
    )


# ----------------------------------------------------------------------
# BENCHMARK.json and the manifest
# ----------------------------------------------------------------------
def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(METRIC_NAME.match(name) for name in names)
    assert len(names) == len(set(names))


def test_every_end_to_end_metric_has_a_unit_and_a_bound():
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["unit"]
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workload_layer_metrics_are_declared():
    declared = {m["name"] for m in SPEC["per_layer"]}
    render = render_workloads.layer_metrics(
        {}, {name: 1.0 for name in render_workloads.COUNT_NAMES}
    )
    simulate = simulate_workload.layer_metrics(
        {}, {name: 1.0 for name in simulate_workload.COUNT_NAMES}
    )
    assert set(render) <= declared
    assert set(simulate) <= declared


def test_manifest_maps_every_metric_to_its_workloads():
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert set(MANIFEST["workloads"]) == workloads
    for name, why in MANIFEST["workloads"].items():
        assert why == next(w["why"] for w in SPEC["workloads"] if w["name"] == name)
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    targets = MANIFEST["per_layer_targets"]
    assert set(targets) == {m["name"] for m in SPEC["per_layer"]}
    for target in targets.values():
        assert set(target["workloads"]) <= workloads
        assert set(target["moves"]) <= e2e
    assert {"python", "numpy", "nproc", "git_sha", "calib_ms"} <= set(MANIFEST["environment"])
