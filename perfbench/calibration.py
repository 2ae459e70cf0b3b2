"""Machine-speed calibration: the yardstick every reported timing is scaled by.

The host this benchmark runs on drifts in speed from one process to the next
and from one second to the next (shared cores, frequency scaling), and the
drift is common-mode: a fixed piece of NumPy-plus-Python work slows down with
the program.  So between operations — never inside their timing — the
harness times :meth:`CalibrationKernel.sample`, three single-threaded parts
standing for the three kinds of work the program spends its time in:

* ``sort``: a NumPy stable argsort and a binary search (depth sorting,
  ``argsort`` and ``searchsorted`` over the tile streams' keys);
* ``gather``: a fancy-index gather from a 4 MB table and elementwise
  arithmetic on it (the rasterizer's ``take`` gathers and alpha math, the
  workload model's pair lists);
* ``python``: an interpreted dict-probe loop with integer arithmetic
  (Neo's per-tile tables and ID indices).

The parts do not slow down alike when the machine does, nor alike from one
kind of slow phase of the host to the next: the interpreted loop follows
Neo's sorter, the NumPy sort the rest of the program.  So each workload's
yardstick is its own fixed mix of the parts (:data:`MIXES`), weighted
towards the kind of work its ops do; each part is first expressed relative
to its reference-machine time (:data:`PART_REF_MS`), so on the reference
machine every mix reads :data:`CALIB_REF_MS`.  A timing is then reported in
*reference-machine units*::

    normalized = raw * CALIB_REF_MS / calib_ms

where ``calib_ms`` is, for one op of a closed loop, the geometric mean of
the samples taken just before and just after it (:func:`pair_scales`), and
otherwise the median over the run.  No change to the program can move
``calib_ms`` (the kernel lives only in these files), so only the machine
moves it, and dividing it out cancels the drift.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Yardstick, in ms, on the reference machine (2-core x86-64 VM, Python
#: 3.11, NumPy 2.4, one BLAS/OpenMP thread), whatever the mix.  Pinned:
#: changing it rescales every reported timing.
CALIB_REF_MS = 5.0

#: Median time of each part, in ms, on the reference machine.  Pinned with
#: the parts: change them only together.
PART_REF_MS = {"sort": 3.5, "gather": 0.75, "python": 8.8}

_NUMPY_HEAVY = {"sort": 0.7, "gather": 0.15, "python": 0.15}

#: Each workload's share of each part, chosen from how closely the mix's
#: speed followed the workload's op times across the host's speed swings.
#: Neo's interpreted sorter makes ``render_neo`` follow the Python part
#: about as closely as the NumPy ones, so it takes a half share of each.
MIXES = {
    "render_exact": _NUMPY_HEAVY,
    "render_neo": {"sort": 0.4, "gather": 0.1, "python": 0.5},
    "simulate": _NUMPY_HEAVY,
}

_SORT_N = 1 << 13
#: Gather source and search table: 4 MB, past the private caches, as the
#: raster's stacks and the workload model's key tables are.
_TABLE_N = 1 << 19
_GATHER_N = 1 << 15
_SEARCH_N = 1 << 12
_DICT_N = 40000


class CalibrationKernel:
    """Fixed inputs plus the timed parts; build once per process."""

    def __init__(self, mix: dict[str, float]) -> None:
        if set(mix) != set(PART_REF_MS) or not math.isclose(sum(mix.values()), 1.0):
            raise ValueError(f"a mix shares 1 among exactly the parts {sorted(PART_REF_MS)}")
        self.mix = dict(mix)
        rng = np.random.default_rng(20260417)
        self._keys = rng.integers(0, 1 << 40, size=_SORT_N)
        self._table = np.sort(rng.random(_TABLE_N))
        self._index = rng.integers(0, _TABLE_N, size=_GATHER_N)
        self._queries = rng.random(_SEARCH_N)
        ids = rng.integers(0, _SORT_N, size=2 * _DICT_N)
        self._dict = {int(k): int(v) for k, v in zip(ids[:_DICT_N], ids[_DICT_N:])}
        self._probe = [int(k) for k in ids[_DICT_N:]]
        self.samples_ms: list[float] = []

    def _sort(self) -> float:
        order = np.argsort(self._keys, kind="stable")
        ranks = np.searchsorted(self._table, self._queries)
        return float(order[-1] + ranks[-1])

    def _gather(self) -> float:
        gathered = self._table.take(self._index)
        return float(np.where(gathered > 0.5, gathered * 2.0 - 1.0, gathered)[-1])

    def _python(self) -> float:
        acc = 0
        table = self._dict
        for key in self._probe:
            value = table.get(key)
            if value is not None:
                acc = (acc * 31 + value) & 0xFFFFFF
        return float(acc)

    def part_ms(self) -> dict[str, float]:
        """Time each part once, in this thread's CPU time.

        CPU time follows the machine's speed but not the time the host takes
        the CPU away, which would make single samples read several times
        too slow.
        """
        times = {}
        parts = (("sort", self._sort), ("gather", self._gather), ("python", self._python))
        for name, part in parts:
            start = time.thread_time()
            part()
            times[name] = (time.thread_time() - start) * 1e3
        return times

    def sample(self) -> float:
        """Time one kernel run; record and return its yardstick in ms."""
        return self.record(self.part_ms())

    def record(self, part_ms: dict[str, float]) -> float:
        """The yardstick of one sample's part times, recorded."""
        ms = CALIB_REF_MS * sum(
            share * part_ms[name] / PART_REF_MS[name] for name, share in self.mix.items()
        )
        self.samples_ms.append(ms)
        return ms

    def calib_ms(self) -> float:
        """Median of every sample taken so far in this run."""
        if not self.samples_ms:
            raise RuntimeError("no calibration samples taken")
        return statistics.median(self.samples_ms)

    def scale(self) -> float:
        """Factor turning this run's raw times into reference-machine units."""
        return scale_factor(self.calib_ms())


def scale_factor(calib_ms: float) -> float:
    """``CALIB_REF_MS / calib``: multiplies a raw time into reference-machine units."""
    if calib_ms <= 0:
        raise ValueError("calibration time must be positive")
    return CALIB_REF_MS / calib_ms


def pair_scales(samples_ms: list[float], before: list[int]) -> list[float]:
    """Scale factor of each op from the samples taken just before and after it.

    ``before[i]`` is the index in ``samples_ms`` of the sample taken just
    before op ``i``; the next sample was taken just after it.
    """
    return [
        scale_factor(math.sqrt(samples_ms[i] * samples_ms[i + 1])) for i in before
    ]
