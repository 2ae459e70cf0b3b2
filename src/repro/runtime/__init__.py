"""Execution runtime: process-parallel experiment fan-out + disk caching.

The runtime layer sits between the CLI and the experiment/pipeline layers.
It owns the process pool (:func:`parallel_map`) and artifact persistence
(:class:`ResultCache`), keeping both orthogonal to the science code: drivers
and the renderer stay pure functions of their inputs.
"""

from .cache import DEFAULT_CACHE_DIR, ResultCache, code_version, stable_key
from .parallel import parallel_map

__all__ = [
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "code_version",
    "parallel_map",
    "stable_key",
]
