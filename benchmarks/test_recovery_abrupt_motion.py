"""Bench: accuracy restoration after abrupt camera motion (section 4.3).

Not a numbered figure, but a quantified claim of the paper: "even under
abrupt camera motion, this method recovers the correct ordering within a
few frames, eliminating the need for full sorting."
"""

import numpy as np

from repro.experiments import recovery

from conftest import run_once


def test_recovery_abrupt_motion(benchmark):
    result = run_once(benchmark, recovery.plan, jump_degrees=10.0)
    print("\n" + result.to_text())

    rows = result.rows
    jump = next(r["frame"] for r in rows if r["is_jump"])
    # The jump shows up as an incoming-Gaussian burst...
    baseline_incoming = np.mean([r["incoming"] for r in rows[1:jump]])
    assert rows[jump]["incoming"] > 5 * baseline_incoming
    # ...quality never collapses (no popping below 40 dB vs exact)...
    assert min(r["psnr_vs_exact"] for r in rows[1:]) > 40.0
    # ...and the ordering recovers within a few frames without a re-sort.
    assert recovery.recovery_frames(result, threshold_db=45.0) <= 3
