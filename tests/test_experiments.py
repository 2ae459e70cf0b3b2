"""Tests for the experiment drivers (fast configurations)."""

import pytest

from repro.experiments import PLANS, ExperimentResult, SimJob, execute_plan, list_experiments
from repro.experiments import (
    fig03,
    fig04,
    fig09,
    fig15,
    fig16,
    fig17,
    fig18,
    table3,
    table4,
)

FAST_SCENES = ("family", "horse")
FAST_FRAMES = 4


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        names = list_experiments()
        for expected in (
            "fig03", "fig04", "fig05", "fig06", "fig07", "fig09", "fig10",
            "fig15", "fig16", "fig17", "fig18", "fig19",
            "table2", "table3", "table4",
        ):
            assert expected in names

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            PLANS["fig99"]

    def test_default_plan_executes(self):
        result = execute_plan(PLANS["table3"]())
        assert isinstance(result, ExperimentResult)
        assert result.name == "table3"


class TestExperimentResult:
    def test_to_text_and_column(self):
        result = execute_plan(table4.plan())
        text = result.to_text()
        assert "Merge Sort Unit+" in text
        assert len(result.column("component")) == len(result.rows)

    def test_filter(self):
        result = execute_plan(table3.plan())
        assert result.filter(device="Neo")[0]["area_mm2"] < 0.5

    def test_empty_to_text(self):
        assert "(no rows)" in ExperimentResult("x", "y").to_text()


class TestSimulateSystem:
    def test_all_registered_systems(self):
        from repro.hw.system import registered_systems

        for system in registered_systems():
            report = SimJob.make(system, "family", "hd", frames=3).simulate()
            assert report.fps > 0

    def test_unknown_system(self):
        with pytest.raises(KeyError):
            SimJob.make("tpu", "family", "hd")


class TestFigureDrivers:
    def test_fig03_shape(self):
        result = execute_plan(fig03.plan(scenes=FAST_SCENES, num_frames=FAST_FRAMES))
        assert len(result.rows) == len(FAST_SCENES) * 3
        hd = [r["fps"] for r in result.rows if r["resolution"] == "hd"]
        qhd = [r["fps"] for r in result.rows if r["resolution"] == "qhd"]
        assert min(hd) > max(qhd)  # FPS falls with resolution

    def test_fig04_scaling_claims(self):
        result = execute_plan(fig04.plan(scenes=FAST_SCENES, num_frames=FAST_FRAMES))
        assert len(result.rows) == 9
        core_gain = fig04.core_scaling_at(result, 51.2)
        bw_gain = fig04.bandwidth_scaling_at(result, 16)
        assert core_gain < 1.5  # bandwidth-bound: cores barely help
        assert bw_gain > 2.0  # bandwidth helps a lot

    def test_fig09_interleaving_wins(self):
        # Perturbation bounded by the chunk size converges within a few
        # alternating-boundary iterations; fixed boundaries stay stuck.
        result = execute_plan(
            fig09.plan(length=256, chunk_size=32, iterations=6, shuffle_distance=24)
        )
        final = result.rows[-1]
        assert final["interleaved_max_disp"] == 0
        assert final["fixed_max_disp"] > 0
        assert final["interleaved_sortedness"] == 1.0

    def test_fig15_ordering(self):
        result = execute_plan(fig15.plan(scenes=FAST_SCENES, num_frames=FAST_FRAMES))
        ratios = fig15.speedups(result)
        for res in ("hd", "fhd", "qhd"):
            assert ratios[res]["vs_orin"] > 1.0
            assert ratios[res]["vs_gscore"] > 1.0
        assert ratios["qhd"]["vs_gscore"] > ratios["hd"]["vs_gscore"]

    def test_fig16_reductions(self):
        result = execute_plan(fig16.plan(scenes=FAST_SCENES, num_frames=FAST_FRAMES))
        cuts = fig16.reductions(result)
        assert cuts["vs_orin"] > 0.85
        assert cuts["vs_gscore"] > 0.6

    def test_fig17_panels(self):
        result = execute_plan(fig17.plan_camera_speed(num_frames=FAST_FRAMES))
        assert all(row["fps"] > 60 for row in result.rows)

    def test_fig18_staircase(self):
        result = execute_plan(fig18.plan(scenes=FAST_SCENES, num_frames=FAST_FRAMES))
        speedups = {r["variant"]: r["speedup_vs_gscore"] for r in result.rows}
        traffic = {r["variant"]: r["relative_traffic"] for r in result.rows}
        assert speedups["gscore"] == 1.0
        assert 1.0 < speedups["neo-s"] < speedups["neo"]
        assert traffic["neo"] < traffic["neo-s"] < 1.0

    def test_table4_added_hardware_share(self):
        share = table4.added_hardware_share()
        assert share["area_share"] == pytest.approx(0.09, abs=0.02)
        assert share["power_share"] == pytest.approx(0.089, abs=0.02)

