"""Wire protocol for the simulation service: newline-delimited JSON.

One message per line, UTF-8 JSON, over a plain TCP stream.  Requests carry
an ``op`` plus a client-chosen ``id`` the response echoes, so a client may
pipeline many requests on one connection and match responses as they
arrive (responses complete in *completion* order, not request order —
that's the whole point of coalescing and the worker pool).

Request ops::

    {"op": "simulate", "id": 7, "tenant": "acme", "job": {...SimJob...},
     "timeout_s": 30.0, "attempt": 0, "shared_cache": false}
    {"op": "ping", "id": 1}
    {"op": "stats", "id": 2}
    {"op": "shutdown", "id": 3}

Simulate responses (``status`` discriminates)::

    {"id": 7, "status": "ok", "origin": "executed|coalesced|cache",
     "report": {...}, "elapsed_ms": 12.3}
    {"id": 7, "status": "rejected", "reason": "queue_full", "queue_depth": 64}
    {"id": 7, "status": "timeout", "timeout_s": 30.0}
    {"id": 7, "status": "error", "error": "..."}

The ``report`` payload is the canonical JSON form of a
:class:`~repro.hw.stages.SequenceReport` produced by
:func:`report_to_payload`.  It is built from plain ``int``/``float`` values
only, so serializing the same report always yields the same bytes — the
byte-identity contract the service CI job checks against a direct
:func:`~repro.experiments.engine.execute_cells` run (see
:func:`canonical_bytes`).
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from ..experiments.engine import SimJob
from ..hw.stages import FrameReport, SequenceReport, StageTraffic
from ..runtime.cache import _json_default

#: Protocol identifier, echoed by ``ping``; bump on incompatible changes.
PROTOCOL = "repro-service/1"

#: Stream limit per message line (a 240-frame report is ~60 KB of JSON).
MAX_MESSAGE_BYTES = 4 * 1024 * 1024

#: Most frames one simulate request may ask for: a 4096-frame report is
#: ~1 MB of JSON, well inside :data:`MAX_MESSAGE_BYTES`.
MAX_JOB_FRAMES = 4096

#: Largest functional Gaussian count and capture dimension one request may
#: name: every capture's scene and geometry stay resident in the server's
#: in-process memos.
MAX_JOB_GAUSSIANS = 65536
MAX_JOB_CAPTURE_PX = 4096


def encode_message(message: dict[str, Any]) -> bytes:
    """One message as a compact, key-sorted JSON line."""
    body = json.dumps(
        message, sort_keys=True, separators=(",", ":"), default=_json_default
    )
    return body.encode("utf-8") + b"\n"


async def read_message(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Read the next message; ``None`` on a clean EOF.

    Raises ``ValueError`` on a non-JSON or non-object line — the peer is
    speaking a different protocol and the connection should be dropped.
    """
    line = await reader.readline()
    if not line:
        return None
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"undecodable message line: {exc}") from exc
    if not isinstance(message, dict):
        raise ValueError(f"expected a JSON object, got {type(message).__name__}")
    return message


def job_from_payload(payload: dict[str, Any]) -> SimJob:
    """Rebuild the request's simulation cell, validated for the service.

    :class:`SimJob` checks every field's domain; the service also caps
    ``frames`` at :data:`MAX_JOB_FRAMES`, ``num_gaussians`` at
    :data:`MAX_JOB_GAUSSIANS` and the capture size at
    :data:`MAX_JOB_CAPTURE_PX` per side.
    """
    job = SimJob.from_payload(payload)
    if job.frames is not None and job.frames > MAX_JOB_FRAMES:
        raise ValueError(f"frames must be <= {MAX_JOB_FRAMES}, got {job.frames}")
    if (job.num_gaussians or 0) > MAX_JOB_GAUSSIANS:
        raise ValueError(f"num_gaussians must be <= {MAX_JOB_GAUSSIANS}, got {job.num_gaussians}")
    if max(job.capture_width, job.capture_height) > MAX_JOB_CAPTURE_PX:
        raise ValueError(f"capture dimensions must be <= {MAX_JOB_CAPTURE_PX} px")
    return job


def report_to_payload(report: SequenceReport) -> dict[str, Any]:
    """Canonical JSON-safe form of a sequence report.

    Every leaf is coerced to a plain ``int``/``float`` so numpy scalars
    coming out of the vectorized simulation core serialize identically to
    values that round-tripped through JSON once already.
    """
    return {
        "system": report.system,
        "scene": report.scene,
        "resolution": [int(d) for d in report.resolution],
        "frames": [
            {
                "frame_index": int(f.frame_index),
                "traffic": {
                    "feature_extraction": float(f.traffic.feature_extraction),
                    "sorting": float(f.traffic.sorting),
                    "rasterization": float(f.traffic.rasterization),
                },
                "memory_time_s": float(f.memory_time_s),
                "compute_time_s": float(f.compute_time_s),
            }
            for f in report.frames
        ],
    }


def report_from_payload(payload: dict[str, Any]) -> SequenceReport:
    """Rebuild a :class:`SequenceReport` from :func:`report_to_payload` output."""
    return SequenceReport(
        system=payload["system"],
        scene=payload["scene"],
        resolution=tuple(payload["resolution"]),
        frames=[
            FrameReport(
                frame_index=f["frame_index"],
                traffic=StageTraffic(**f["traffic"]),
                memory_time_s=f["memory_time_s"],
                compute_time_s=f["compute_time_s"],
            )
            for f in payload["frames"]
        ],
    )


def canonical_bytes(payload: dict[str, Any]) -> bytes:
    """Deterministic byte form of a payload (sorted keys, compact).

    Equal payloads — whether freshly built by :func:`report_to_payload` or
    parsed back off the wire — produce equal bytes, which is what the
    service-smoke CI job compares against direct engine execution.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
