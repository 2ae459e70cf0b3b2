"""Tests for batched rollout execution.

``BatchedRollout`` / ``execute_cells(batched=True)`` must return per-cell
reports byte-identical to per-process simulation.
"""

import numpy as np
import pytest

from repro.experiments.engine import BatchedRollout, SimJob, execute_cells


def _frames_equal(got, want) -> bool:
    return (
        len(got.frames) == len(want.frames)
        and all(
            g.frame_index == w.frame_index
            and g.traffic.feature_extraction == w.traffic.feature_extraction
            and g.traffic.sorting == w.traffic.sorting
            and g.traffic.rasterization == w.traffic.rasterization
            and g.memory_time_s == w.memory_time_s
            and g.compute_time_s == w.compute_time_s
            for g, w in zip(got.frames, want.frames)
        )
    )


def _bandwidth_grid(system="neo", count=8, frames=4):
    bandwidths = np.linspace(25.6, 204.8, count)
    return [
        SimJob.make(system, "family", "hd", frames=frames, bandwidth_gbps=float(b))
        for b in bandwidths
    ]


class TestBatchedRollout:
    def test_byte_identical_on_bandwidth_grid(self):
        jobs = _bandwidth_grid(count=8)
        want = {job: job.resolved().simulate() for job in jobs}
        rollout = BatchedRollout(jobs)
        got = rollout.execute()
        assert rollout.stats.stacked == 8
        assert rollout.stats.fallback == 0
        assert all(_frames_equal(got[job], want[job]) for job in jobs)

    def test_gscore_cores_sweep_stacks(self):
        jobs = [
            SimJob.make("gscore", "family", "hd", frames=4, cores=c)
            for c in (4, 8, 16, 32)
        ]
        want = {job: job.resolved().simulate() for job in jobs}
        rollout = BatchedRollout(jobs)
        got = rollout.execute()
        assert rollout.stats.stacked == 4
        assert all(_frames_equal(got[job], want[job]) for job in jobs)

    def test_pinned_variant_falls_back_per_cell(self):
        # gscore-32c validates the cores knob per cell instead of reading
        # it, so a varying cores axis cannot stack — the rollout must fall
        # back to per-cell simulation, still producing identical reports.
        jobs = [
            SimJob.make("gscore-32c", "family", "hd", frames=4, cores=c)
            for c in (16, 32)
        ]
        want = {job: job.resolved().simulate() for job in jobs}
        rollout = BatchedRollout(jobs)
        got = rollout.execute()
        assert rollout.stats.stacked == 0
        assert rollout.stats.fallback == 2
        assert all(_frames_equal(got[job], want[job]) for job in jobs)

    def test_singleton_batch(self):
        jobs = _bandwidth_grid(count=1)
        rollout = BatchedRollout(jobs)
        got = rollout.execute()
        assert rollout.stats.groups == 1
        assert _frames_equal(got[jobs[0]], jobs[0].resolved().simulate())

    def test_incompatible_cells_grouped_when_not_strict(self):
        jobs = _bandwidth_grid("neo", 2) + _bandwidth_grid("orin", 2)
        rollout = BatchedRollout(jobs)
        got = rollout.execute()
        assert rollout.stats.groups == 2
        assert all(_frames_equal(got[j], j.resolved().simulate()) for j in jobs)

    def test_strict_rejects_incompatible_cells(self):
        jobs = _bandwidth_grid("neo", 2) + _bandwidth_grid("orin", 2)
        with pytest.raises(ValueError, match="system"):
            BatchedRollout(jobs, strict=True)

    def test_strict_error_names_only_mismatched_fields(self):
        jobs = [
            SimJob.make("neo", "family", "hd", frames=4),
            SimJob.make("neo", "family", "qhd", frames=4),
        ]
        with pytest.raises(ValueError) as excinfo:
            BatchedRollout(jobs, strict=True)
        assert "['resolution'] differ" in str(excinfo.value)

    def test_duplicate_jobs_share_one_cell(self):
        job = SimJob.make("neo", "family", "hd", frames=4, bandwidth_gbps=51.2)
        twin = SimJob.make("neo", "family", "hd", frames=4, bandwidth_gbps=51.2)
        rollout = BatchedRollout([job, twin])
        got = rollout.execute()
        assert rollout.stats.stacked == 1
        assert _frames_equal(got[job], got[twin])


class TestExecuteCellsBatched:
    def test_values_match_per_cell_execution(self):
        cells = [job.resolved() for job in _bandwidth_grid(count=8)]
        want = execute_cells(cells, lambda c: c.simulate(), cache=None)
        got = execute_cells(cells, lambda c: c.simulate(), cache=None, batched=True)
        assert got.rollout is not None
        assert got.rollout.stacked == 8
        assert got.computed == want.computed == 8
        assert all(_frames_equal(g, w) for g, w in zip(got.values, want.values))

    def test_batched_results_are_cached(self, tmp_path):
        from repro.runtime import ResultCache

        cache = ResultCache(str(tmp_path / "cache"))
        cells = [job.resolved() for job in _bandwidth_grid(count=4)]
        first = execute_cells(cells, lambda c: c.simulate(), cache=cache, batched=True)
        assert first.computed == 4
        second = execute_cells(cells, lambda c: c.simulate(), cache=cache, batched=True)
        assert second.hits == 4
        assert second.computed == 0

    def test_non_simjob_cells_take_normal_path(self):
        class PlainCell:
            def __init__(self, value):
                self.value = value

            def cache_spec(self):
                return "test-plain", {"value": self.value}

        cells = [PlainCell(1), PlainCell(2)]
        batch = execute_cells(cells, lambda c: c.value * 10, cache=None, batched=True)
        assert batch.values == [10, 20]
