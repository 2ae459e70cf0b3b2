"""Bench: Fig. 9 — fixed vs interleaved chunk boundaries."""

from repro.experiments import fig09

from conftest import run_once


def test_fig09_boundary_interleaving(benchmark):
    result = run_once(
        benchmark, fig09.plan, length=512, chunk_size=64, iterations=8, shuffle_distance=48
    )
    print("\n" + result.to_text())

    final = result.rows[-1]
    first = result.rows[1]
    # Paper Fig. 9: fixed boundaries never let elements cross, so the order
    # stops improving after the first pass; interleaved boundaries reach the
    # fully sorted state within a few iterations.
    assert final["interleaved_sortedness"] == 1.0
    assert final["interleaved_max_disp"] == 0
    assert final["fixed_max_disp"] == first["fixed_max_disp"]  # stuck
    assert final["fixed_sortedness"] < 1.0
