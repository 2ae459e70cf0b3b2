"""Unit tests for the three system performance models.

These assert the *structural* properties the paper's evaluation relies on —
who wins, what dominates, how knobs move the numbers — not absolute values.
"""

import pytest

from repro.hw.accelerator import (
    _DRAM_EFFICIENCY,
    _ENTRY_BYTES,
    NeoModel,
    sort_cycles_per_entry,
)
from repro.hw.config import EDGE_BANDWIDTH_GBPS, DramConfig, GSCoreConfig, NeoConfig
from repro.hw.gpu import OrinGpuModel
from repro.hw.gscore import GSCoreModel
from repro.hw.stages import SequenceReport, StageTraffic, effective_pairs
from repro.hw.workload import WorkloadModel


@pytest.fixture(scope="module")
def workloads():
    wm = WorkloadModel.from_scene("family", num_frames=5, num_gaussians=1500)
    return {
        "qhd16": wm.sequence_workloads("qhd", 16),
        "qhd64": wm.sequence_workloads("qhd", 64),
        "hd16": wm.sequence_workloads("hd", 16),
        "hd64": wm.sequence_workloads("hd", 64),
    }


class TestStageTraffic:
    def test_total_and_fractions(self):
        traffic = StageTraffic(feature_extraction=10, sorting=70, rasterization=20)
        assert traffic.total == 100
        fracs = traffic.fractions()
        assert fracs["sorting"] == pytest.approx(0.7)

    def test_empty_fractions(self):
        assert StageTraffic().fractions()["sorting"] == 0.0

    def test_effective_pairs_saturates(self, workloads):
        w = workloads["qhd64"][1]
        unbounded = effective_pairs(w, termination_depth=10**9)
        bounded = effective_pairs(w, termination_depth=100)
        assert unbounded == pytest.approx(w.mean_occupancy * w.nonempty_tiles)
        assert bounded == pytest.approx(100 * w.nonempty_tiles)


class TestOrinModel:
    def test_sorting_dominates_traffic(self, workloads):
        model = OrinGpuModel()
        traffic = model.frame_traffic(workloads["qhd16"][1])
        assert traffic.fractions()["sorting"] > 0.8  # Fig. 5a: up to 91%

    def test_neo_sw_cuts_sorting_traffic(self, workloads):
        base = OrinGpuModel().frame_traffic(workloads["qhd16"][1])
        neo_sw = OrinGpuModel(neo_software=True).frame_traffic(workloads["qhd16"][1])
        assert neo_sw.sorting < 0.25 * base.sorting  # >80% cut (Fig. 10a)

    def test_neo_sw_speedup_is_modest(self, workloads):
        base = OrinGpuModel().simulate(workloads["qhd16"])
        neo_sw = OrinGpuModel(neo_software=True).simulate(workloads["qhd16"])
        speedup = base.mean_latency_s / neo_sw.mean_latency_s
        assert 1.0 < speedup < 1.6  # Fig. 10b: ~1.1x end to end

    def test_resolution_scaling(self, workloads):
        model = OrinGpuModel()
        hd = model.simulate(workloads["hd16"])
        qhd = model.simulate(workloads["qhd16"])
        assert qhd.mean_latency_s > 2.0 * hd.mean_latency_s

    def test_name(self):
        assert OrinGpuModel().name == "orin-agx"
        assert OrinGpuModel(neo_software=True).name == "orin-agx-neo-sw"


class TestGSCoreModel:
    def test_bandwidth_bound_at_edge(self, workloads):
        # 4 -> 16 cores at 51.2 GB/s buys little (Fig. 4 / paper: ~1.12x).
        slow = GSCoreModel(config=GSCoreConfig(cores=4)).simulate(workloads["qhd16"])
        fast = GSCoreModel(config=GSCoreConfig(cores=16)).simulate(workloads["qhd16"])
        assert 1.0 < slow.mean_latency_s / fast.mean_latency_s < 1.5

    def test_bandwidth_scaling_strong(self, workloads):
        lo = GSCoreModel(dram=DramConfig(bandwidth_gbps=51.2)).simulate(workloads["qhd16"])
        hi = GSCoreModel(dram=DramConfig(bandwidth_gbps=204.8)).simulate(workloads["qhd16"])
        assert lo.mean_latency_s / hi.mean_latency_s > 2.0  # Fig. 4: ~3.8x

    def test_sorting_is_largest_stage(self, workloads):
        traffic = GSCoreModel().frame_traffic(workloads["qhd16"][1])
        fracs = traffic.fractions()
        assert fracs["sorting"] > fracs["feature_extraction"]
        assert fracs["sorting"] > fracs["rasterization"]
        assert 0.5 < fracs["sorting"] < 0.85  # Fig. 5b: 63-69%

    def test_less_traffic_than_gpu(self, workloads):
        gpu = OrinGpuModel().frame_traffic(workloads["qhd16"][1])
        gscore = GSCoreModel().frame_traffic(workloads["qhd16"][1])
        assert gscore.total < 0.5 * gpu.total


class TestNeoModel:
    def test_names(self):
        assert NeoModel().name == "neo"
        assert NeoModel(sorting_engine_only=True).name == "neo-s"
        assert NeoModel(defer_depth_update=False).name == "neo-eager-depth"

    def test_beats_gscore_at_qhd(self, workloads):
        neo = NeoModel().simulate(workloads["qhd64"])
        gscore = GSCoreModel(config=GSCoreConfig(cores=16)).simulate(workloads["qhd16"])
        speedup = gscore.mean_latency_s / neo.mean_latency_s
        assert 3.0 < speedup < 8.0  # paper: 5.6x at QHD

    def test_traffic_far_below_baselines(self, workloads):
        neo = NeoModel().simulate(workloads["qhd64"])
        gscore = GSCoreModel().simulate(workloads["qhd16"])
        gpu = OrinGpuModel().simulate(workloads["qhd16"])
        assert neo.total_traffic.total < 0.35 * gscore.total_traffic.total
        assert neo.total_traffic.total < 0.12 * gpu.total_traffic.total

    def test_first_frame_pays_cold_start(self, workloads):
        report = NeoModel().simulate(workloads["qhd64"])
        assert report.frames[0].traffic.sorting > report.frames[1].traffic.sorting

    def test_eager_depth_costs_about_a_third_more_sorting(self, workloads):
        neo = NeoModel().simulate(workloads["qhd64"])
        eager = NeoModel(defer_depth_update=False).simulate(workloads["qhd64"])
        ratio = eager.frames[2].traffic.sorting / neo.frames[2].traffic.sorting
        assert 1.5 < ratio < 2.5  # extra read+write of the table

    def test_neo_s_slower_and_heavier_than_neo(self, workloads):
        neo = NeoModel().simulate(workloads["qhd64"])
        neo_s = NeoModel(sorting_engine_only=True).simulate(workloads["qhd64"])
        assert neo_s.mean_latency_s > 1.2 * neo.mean_latency_s  # Fig. 18: 1.7x
        assert neo_s.total_traffic.total > neo.total_traffic.total

    def test_qhd_realtime_at_edge_bandwidth(self, workloads):
        report = NeoModel().simulate(workloads["qhd64"])
        assert report.fps > 60.0  # the paper's headline SLO claim

    def test_sort_cycles_per_entry_follows_the_chunk_pipeline(self):
        # 256-entry chunk: 16 BSU runs x 10 network stages, then 4 MSU+
        # merge levels x 256 entries = 1184 cycles.
        assert sort_cycles_per_entry(NeoConfig()) == 1184 / 256 == 4.625
        # A chunk that fits one BSU run needs no merge level.
        assert sort_cycles_per_entry(NeoConfig(chunk_size=16)) == 10 / 16
        # A partial last run still takes a full run and a merge level.
        assert sort_cycles_per_entry(NeoConfig(chunk_size=17)) == (2 * 10 + 17) / 17

    def test_sorting_compute_hides_behind_its_streaming(self):
        # The max(memory, compute) form rests on this: per table entry, the
        # Sorting Cores finish before the entry's read and write stream
        # over the edge DRAM bandwidth.
        cfg = NeoConfig()
        compute_s = sort_cycles_per_entry(cfg) / (
            cfg.sorting_cores * cfg.frequency_ghz * 1e9
        )
        stream_s = 2 * _ENTRY_BYTES / (EDGE_BANDWIDTH_GBPS * 1e9 * _DRAM_EFFICIENCY)
        assert compute_s == pytest.approx(0.289e-9, rel=1e-2)
        assert stream_s == pytest.approx(0.381e-9, rel=1e-2)
        assert compute_s < stream_s


class TestSequenceReport:
    def test_aggregation(self, workloads):
        report = NeoModel().simulate(workloads["hd64"], scene="family")
        assert isinstance(report, SequenceReport)
        assert report.num_frames == 5
        assert report.scene == "family"
        assert report.fps == pytest.approx(1.0 / report.mean_latency_s)
        assert report.traffic_gb_for(60) == pytest.approx(
            report.total_traffic.total / 5 * 60 / 1e9
        )
        assert report.latencies_ms().shape == (5,)

    def test_empty_simulation_rejected(self):
        with pytest.raises(ValueError):
            NeoModel().simulate([])
