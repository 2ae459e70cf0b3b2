"""Statistics, spans, and call interposition shared by every workload.

Spans are recorded from the benchmark's files only: :func:`interposed`
temporarily replaces a module's public entry point (or an object's method)
with a wrapper that opens a span around the original call, and restores it
afterwards.  The program itself carries no tracing code, and an untraced
operation runs with every original in place.
"""

from __future__ import annotations

import re
import resource
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: What a metric or workload name may be made of.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Samples a tail percentile must leave above it.
TAIL_BEYOND = 10


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def start_clock() -> tuple[float, float]:
    """The wall and process-CPU clocks, read together."""
    return time.perf_counter(), time.process_time()


def since(start: tuple[float, float]) -> tuple[float, float]:
    """``(wall, busy)`` seconds since ``start``.

    ``busy`` is the wall time, or the process's CPU time when that is
    smaller.  A closed-loop op runs on one thread and waits on nothing, so
    its wall time exceeds its CPU time only by the time the host took the
    VM's CPU away ("steal"), in bursts no program change controls.  An op
    that runs threads in parallel uses more CPU time than wall time, and is
    timed by the wall clock.
    """
    wall = time.perf_counter() - start[0]
    return wall, min(wall, time.process_time() - start[1])


def tail(values: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with ``TAIL_BEYOND`` samples above it.

    With ``n`` sorted samples that is the ``(TAIL_BEYOND + 1)``-th largest,
    i.e. percentile ``100 * (n - TAIL_BEYOND) / n``; exactly ``TAIL_BEYOND``
    samples are strictly beyond it (ties aside).  Fewer samples than that
    have no such percentile and raise.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail, got {n}")
    return sorted(values)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Tracer:
    """Nested wall-clock spans, aggregated per name.

    Each thread nests its own spans; ``span_ms[name]`` is inclusive time and
    ``self_ms[name]`` is the span minus the time its child spans (on the
    same thread) cover, both summed over every span of that name.
    """

    def __init__(self) -> None:
        self.span_ms: dict[str, float] = defaultdict(float)
        self.self_ms: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._local.__dict__.setdefault("stack", [])
        frame = [name, 0.0]  # [name, child time in seconds]
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            with self._lock:
                self.span_ms[name] += elapsed * 1e3
                self.self_ms[name] += (elapsed - frame[1]) * 1e3
                self.calls[name] += 1

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced


@contextmanager
def interposed(tracer: Tracer, targets: list[tuple[Any, str, str]]) -> Iterator[None]:
    """Wrap ``owner.attr`` in a span named ``span`` for each ``(owner, attr, span)``.

    Works for module globals, class attributes, and instance methods alike;
    on exit each owner is returned to exactly its previous state (an
    attribute that only existed on the class is deleted from the instance
    again).
    """
    saved = []
    try:
        for owner, attr, span in targets:
            own = attr in vars(owner)
            original = getattr(owner, attr)
            saved.append((owner, attr, own, vars(owner).get(attr)))
            setattr(owner, attr, tracer.wrap(span, original))
        yield
    finally:
        for owner, attr, own, original in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
