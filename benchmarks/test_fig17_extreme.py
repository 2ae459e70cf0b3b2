"""Bench: Fig. 17 — large-scale scenes and rapid camera movement."""

from repro.experiments import fig17

from conftest import run_once


def test_fig17a_large_scenes(benchmark, bench_frames):
    result = run_once(benchmark, fig17.plan_large_scenes, num_frames=bench_frames)
    print("\n" + result.to_text())

    # Paper: Neo averages ~65 FPS on Mill-19 while Orin and GSCore drop
    # below ~14 and ~25 FPS.
    neo_mean = sum(r["neo"] for r in result.rows) / len(result.rows)
    assert neo_mean > 45.0
    for row in result.rows:
        assert row["neo"] > 2.0 * row["orin"]
        assert row["neo"] > 1.8 * row["gscore"]
        assert row["orin"] < 20.0
        assert row["gscore"] < 30.0


def test_fig17b_camera_speed(benchmark, bench_frames):
    result = run_once(benchmark, fig17.plan_camera_speed, num_frames=bench_frames)
    print("\n" + result.to_text())

    # Paper: even at 16x camera speed Neo stays above the 60 FPS SLO;
    # reusability (and thus FPS) degrades monotonically with speed.
    fps = [row["fps"] for row in result.rows]
    assert all(f > 60.0 for f in fps)
    assert fps[0] >= fps[-1]
    churn = [row["mean_sorting_bytes"] for row in result.rows]
    assert churn[-1] > churn[0]  # faster motion -> more incoming traffic
