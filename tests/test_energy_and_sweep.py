"""Tests for the energy model and the bandwidth-sensitivity extension."""

import pytest

from repro.experiments import bandwidth_sweep, execute_plan
from repro.hw import GSCoreModel, NeoModel, OrinGpuModel, WorkloadModel
from repro.hw.energy import EnergyReport, efficiency_comparison, energy_report
from repro.hw.stages import SequenceReport


@pytest.fixture(scope="module")
def reports():
    wm = WorkloadModel.from_scene("family", num_frames=4, num_gaussians=1500)
    return {
        "neo": NeoModel().simulate(wm.sequence_workloads("qhd", 64)),
        "gscore": GSCoreModel().simulate(wm.sequence_workloads("qhd", 16)),
        "orin": OrinGpuModel().simulate(wm.sequence_workloads("qhd", 16)),
    }


class TestEnergy:
    def test_components_positive(self, reports):
        for report in reports.values():
            e = energy_report(report)
            assert isinstance(e, EnergyReport)
            assert e.core_mj_per_frame > 0
            assert e.dram_mj_per_frame > 0
            assert e.total_mj_per_frame == pytest.approx(
                e.core_mj_per_frame + e.dram_mj_per_frame
            )

    def test_neo_most_efficient_per_frame(self, reports):
        energies = {k: energy_report(v).total_mj_per_frame for k, v in reports.items()}
        # Despite ~11% higher power than GSCore, Neo finishes frames ~5x
        # sooner and moves ~4x fewer bytes: energy/frame is several times
        # lower; the GPU is worst on both axes.
        assert energies["neo"] < 0.5 * energies["gscore"]
        assert energies["gscore"] < energies["orin"]

    def test_per_megapixel_normalization(self, reports):
        e = energy_report(reports["neo"])
        per_mp = e.mj_per_megapixel(2560, 1440)
        assert per_mp == pytest.approx(e.total_mj_per_frame / 3.6864)

    def test_comparison_helper(self, reports):
        out = efficiency_comparison(list(reports.values()))
        assert {e.system for e in out} == {"neo", "gscore", "orin-agx"}

    def test_empty_report_rejected(self):
        empty = SequenceReport(system="neo", scene="x", resolution=(1, 1))
        with pytest.raises(ValueError):
            energy_report(empty)

    def test_unknown_system_rejected(self, reports):
        bad = SequenceReport(system="tpu", scene="x", resolution=(1, 1))
        bad.frames = reports["neo"].frames
        with pytest.raises(KeyError):
            energy_report(bad)


class TestBandwidthSweep:
    @pytest.fixture(scope="class")
    def result(self):
        return execute_plan(bandwidth_sweep.plan(num_frames=4))

    def test_monotone_in_bandwidth(self, result):
        neo = result.column("neo_fps")
        gscore = result.column("gscore_fps")
        assert neo == sorted(neo)
        assert gscore == sorted(gscore)

    def test_neo_realtime_at_fraction_of_gscore_budget(self, result):
        neo_bw = bandwidth_sweep.realtime_bandwidth(result, "neo")
        gscore_bw = bandwidth_sweep.realtime_bandwidth(result, "gscore")
        # Neo reaches 60 FPS within the practical on-device range
        # (17.8-59.7 GB/s); GSCore does not even at 204.8 GB/s.
        assert neo_bw <= 59.7
        assert gscore_bw == float("inf")

    def test_neo_wins_everywhere(self, result):
        for row in result.rows:
            assert row["neo_fps"] > 3 * row["gscore_fps"]

    def test_registered(self):
        from repro.experiments import list_experiments

        assert "bandwidth_sweep" in list_experiments()

    def test_scene_case_insensitive(self):
        # The driver resolves scene case through scene_spec() at plan time,
        # so its cells name the registered preset.
        plan = bandwidth_sweep.plan(scene="Family", num_frames=2, bandwidths=(51.2,))
        result = execute_plan(plan)
        assert result.rows[0]["neo_fps"] > 0
