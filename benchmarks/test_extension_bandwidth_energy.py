"""Extension benches: bandwidth sensitivity and energy per frame.

Not numbered paper figures, but direct consequences of the evaluation:
(1) Neo reaches real-time within the practical on-device bandwidth range
(17.8-59.7 GB/s, section 3.2) while GSCore stays memory-bound far beyond
it; (2) Neo's small power premium (Table 3) buys a several-fold energy-per-
frame advantage once frame time and DRAM traffic are accounted.
"""

from repro.experiments import bandwidth_sweep
from repro.hw import GSCoreModel, NeoModel, OrinGpuModel, WorkloadModel
from repro.hw.energy import energy_report

from conftest import run_once


def test_extension_bandwidth_sweep(benchmark, bench_frames):
    result = run_once(benchmark, bandwidth_sweep.plan, num_frames=bench_frames)
    print("\n" + result.to_text())

    neo_bw = bandwidth_sweep.realtime_bandwidth(result, "neo")
    print(f"neo reaches 60 FPS at {neo_bw} GB/s; gscore: "
          f"{bandwidth_sweep.realtime_bandwidth(result, 'gscore')} GB/s")
    assert neo_bw <= 59.7
    assert bandwidth_sweep.realtime_bandwidth(result, "gscore") == float("inf")


def test_extension_energy_per_frame(benchmark, bench_frames):
    def _run():
        wm = WorkloadModel.from_scene("family", num_frames=bench_frames)
        return [
            energy_report(NeoModel().simulate(wm.sequence_workloads("qhd", 64))),
            energy_report(GSCoreModel().simulate(wm.sequence_workloads("qhd", 16))),
            energy_report(OrinGpuModel().simulate(wm.sequence_workloads("qhd", 16))),
        ]

    reports = benchmark.pedantic(_run, rounds=1, iterations=1)
    for e in reports:
        print(
            f"{e.system:>12}: core {e.core_mj_per_frame:7.1f} mJ + "
            f"dram {e.dram_mj_per_frame:7.1f} mJ = {e.total_mj_per_frame:7.1f} mJ/frame"
        )
    neo, gscore, orin = reports
    assert neo.total_mj_per_frame < 0.5 * gscore.total_mj_per_frame
    assert gscore.total_mj_per_frame < orin.total_mj_per_frame
