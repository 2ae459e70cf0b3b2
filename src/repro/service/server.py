"""Multi-tenant simulation server: coalescing, backpressure, warm scenes.

``repro serve`` runs this asyncio service in front of the experiment
engine's cell model: every request is one
:class:`~repro.experiments.engine.SimJob`-shaped simulation cell.  Three
mechanisms turn many concurrent clients into bounded, shared work:

* **Cross-client coalescing** — the PR 3 engine dedupes identical cells
  *within one caller's batch*; the server generalizes that to N in-flight
  clients with a keyed future map.  The first request for a cell starts an
  execution; every identical request that arrives while it runs (from any
  tenant — the simulation is a pure function of the cell) awaits the same
  future, so an N-client storm on one cell costs exactly one execution.
* **Admission control** — executions queue into a bounded
  :class:`asyncio.Queue`.  A request whose cell would *start a new
  execution* while the queue is full is rejected immediately with
  ``status="rejected"`` (explicit backpressure: clients retry with their
  own policy).  Coalesced joins and cache hits add no work and are always
  admitted.  Each waiter applies its own per-request timeout without
  cancelling the shared execution (``asyncio.shield``).
* **Warm scene residency** — workers run in one process, so the workload
  models' in-process memo (:func:`~repro.experiments.runner.get_workload_model`)
  keeps every capture after its first use: one capture per
  :meth:`SimJob.capture_key` serves every system, resolution and bandwidth.
  The metrics count loads and warm hits by that same key.

Results persist into per-tenant :class:`~repro.runtime.cache.ResultCache`
namespaces (``tenants/<tenant>/reports``); a tenant opts into the shared
namespace with ``shared_cache=true``.  :meth:`SimJob.simulate` never
touches the report cache, so the server's own probe and store under
:meth:`SimJob.cache_spec` are the only report persistence: simulation
workers cannot leak rows across tenants behind the service's back.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

from ..experiments.engine import SimJob
from ..runtime.cache import ResultCache, stable_key
from . import protocol


@dataclass
class ServiceConfig:
    """Tunables for one server instance."""

    host: str = "127.0.0.1"
    port: int = 7341
    #: Worker tasks (and executor threads) running simulations.
    workers: int = 2
    #: Maximum executions waiting for a worker before admission rejects.
    queue_limit: int = 64
    #: Applied when a request names no ``timeout_s`` of its own.
    default_timeout_s: float = 60.0
    #: Root for per-tenant result namespaces; ``None`` disables persistence.
    cache_dir: str | None = None
    #: Test hook: replaces ``SimJob.simulate`` for queued executions.
    simulate_fn: Callable[[SimJob], Any] | None = None

    def public_dict(self) -> dict[str, Any]:
        """JSON-safe view for the ``stats`` op (drops the callable hook)."""
        public = asdict(self)
        public.pop("simulate_fn", None)
        return public


@dataclass
class ServiceMetrics:
    """Server-side accounting, exposed verbatim through the ``stats`` op."""

    received: int = 0
    completed: int = 0
    rejected: int = 0
    timeouts: int = 0
    errors: int = 0
    #: Requests arriving with ``attempt > 0`` (client-declared retries).
    retries: int = 0
    #: Unique executions dispatched to the worker pool.
    executions: int = 0
    #: Requests served by attaching to an execution another request started.
    coalesced: int = 0
    cache_hits: int = 0
    #: Executions whose capture (:meth:`SimJob.capture_key`) was already resident.
    warm_scene_hits: int = 0
    scene_loads: int = 0
    #: Response writes that failed because the client had gone away.
    disconnects: int = 0

    @property
    def coalesce_rate(self) -> float:
        """Fraction of execution-bound requests served by piggybacking."""
        attached = self.executions + self.coalesced
        return self.coalesced / attached if attached else 0.0

    @property
    def warm_scene_rate(self) -> float:
        """Fraction of executions that found their scene already loaded."""
        touched = self.warm_scene_hits + self.scene_loads
        return self.warm_scene_hits / touched if touched else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            **asdict(self),
            "coalesce_rate": self.coalesce_rate,
            "warm_scene_rate": self.warm_scene_rate,
        }


@dataclass
class _Execution:
    """One in-flight simulation shared by every request with the same cell."""

    key: str
    job: SimJob
    future: asyncio.Future = field(repr=False)


class SimulationServer:
    """Asyncio TCP server speaking :mod:`repro.service.protocol`."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.metrics = ServiceMetrics()
        self._cache = (
            ResultCache(self.config.cache_dir) if self.config.cache_dir else None
        )
        self._inflight: dict[str, _Execution] = {}
        self._queue: asyncio.Queue[_Execution] = asyncio.Queue(
            maxsize=max(1, self.config.queue_limit)
        )
        self._executor: ThreadPoolExecutor | None = None
        self._server: asyncio.AbstractServer | None = None
        self._workers: list[asyncio.Task] = []
        self._resident_scenes: set[tuple] = set()
        self._stopping = asyncio.Event()
        self._started_unix = 0.0
        self.port: int | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and launch the worker pool (returns immediately)."""
        self._started_unix = time.time()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-sim"
        )
        self._workers = [
            asyncio.create_task(self._worker(), name=f"repro-worker-{i}")
            for i in range(self.config.workers)
        ]
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=protocol.MAX_MESSAGE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Close the listener, drain nothing: in-flight work is abandoned."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)

    async def run(self) -> None:
        """Serve until the ``shutdown`` op (or task cancellation)."""
        await self.start()
        try:
            await self._stopping.wait()
        finally:
            await self.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection; requests pipeline and resolve out of order."""
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    message = await protocol.read_message(reader)
                except ValueError as exc:
                    await self._send(
                        writer, write_lock, {"status": "error", "error": str(exc)}
                    )
                    break
                if message is None:
                    break
                task = asyncio.create_task(
                    self._handle_message(message, writer, write_lock)
                )
                pending.add(task)
                task.add_done_callback(pending.discard)
        finally:
            # The client is gone (EOF or protocol error).  Leave pending
            # request tasks running — their executions may be shared with
            # other clients — but close our side so their response writes
            # fail fast and are counted as disconnects.
            writer.close()

    async def _handle_message(
        self, message: dict, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        op = message.get("op")
        request_id = message.get("id")
        if op == "simulate":
            response = await self._handle_simulate(message)
        elif op == "ping":
            response = {"id": request_id, "status": "ok", "protocol": protocol.PROTOCOL}
        elif op == "stats":
            response = {
                "id": request_id,
                "status": "ok",
                "metrics": self.metrics.as_dict(),
                "config": self.config.public_dict(),
                "uptime_s": time.time() - self._started_unix,
                "queue_depth": self._queue.qsize(),
                "inflight": len(self._inflight),
            }
        elif op == "shutdown":
            response = {"id": request_id, "status": "ok"}
            self._stopping.set()
        else:
            response = {
                "id": request_id,
                "status": "error",
                "error": f"unknown op {op!r}",
            }
        await self._send(writer, write_lock, response)

    async def _send(
        self, writer: asyncio.StreamWriter, write_lock: asyncio.Lock, message: dict
    ) -> bool:
        try:
            if writer.is_closing():
                raise ConnectionResetError("client connection closed")
            async with write_lock:
                writer.write(protocol.encode_message(message))
                await writer.drain()
            return True
        except (ConnectionError, RuntimeError, OSError):
            # A waiter vanished mid-coalesce; the shared execution (and
            # every other waiter) is unaffected.
            self.metrics.disconnects += 1
            return False

    # ------------------------------------------------------------------
    # Simulation requests
    # ------------------------------------------------------------------
    async def _handle_simulate(self, message: dict) -> dict:
        self.metrics.received += 1
        request_id = message.get("id")
        start = time.perf_counter()
        try:
            if int(message.get("attempt", 0)) > 0:
                self.metrics.retries += 1
            job = protocol.job_from_payload(message["job"]).resolved()
            tenant = message.get("tenant")
            shared_cache = bool(message.get("shared_cache", False))
            timeout_s = float(message.get("timeout_s", self.config.default_timeout_s))
            cache = self._cache_view(None if shared_cache else tenant)
        except (KeyError, TypeError, ValueError) as exc:
            self.metrics.errors += 1
            return {"id": request_id, "status": "error", "error": str(exc)}

        spec = job.cache_spec()
        if cache is not None:
            hit = cache.get(*spec)
            if hit is not None:
                self.metrics.cache_hits += 1
                self.metrics.completed += 1
                return self._ok(request_id, hit, "cache", start)

        key = stable_key(spec[1])
        execution = self._inflight.get(key)
        if execution is None:
            if self._queue.full():
                self.metrics.rejected += 1
                return {
                    "id": request_id,
                    "status": "rejected",
                    "reason": "queue_full",
                    "queue_depth": self._queue.qsize(),
                }
            origin = "executed"
            execution = _Execution(
                key, job, asyncio.get_running_loop().create_future()
            )
            # Retrieve exceptions even if every waiter times out/disconnects,
            # so abandoned executions never log "exception was never retrieved".
            execution.future.add_done_callback(
                lambda f: f.exception() if not f.cancelled() else None
            )
            self._inflight[key] = execution
            self._queue.put_nowait(execution)
        else:
            origin = "coalesced"
            self.metrics.coalesced += 1

        try:
            # shield: a waiter timing out must not cancel the shared run.
            report = await asyncio.wait_for(
                asyncio.shield(execution.future), timeout_s
            )
        except asyncio.TimeoutError:
            self.metrics.timeouts += 1
            return {"id": request_id, "status": "timeout", "timeout_s": timeout_s}
        except Exception as exc:  # simulation raised
            self.metrics.errors += 1
            return {"id": request_id, "status": "error", "error": str(exc)}

        if cache is not None:
            # Each waiter persists into *its own* namespace: every tenant
            # that touched the cell gets a row, and no one else does.
            cache.put(*spec, report)
        self.metrics.completed += 1
        return self._ok(request_id, report, origin, start)

    def _ok(self, request_id, report, origin: str, start: float) -> dict:
        return {
            "id": request_id,
            "status": "ok",
            "origin": origin,
            "elapsed_ms": (time.perf_counter() - start) * 1e3,
            "report": protocol.report_to_payload(report),
        }

    def _cache_view(self, tenant: str | None) -> ResultCache | None:
        if self._cache is None:
            return None
        return self._cache.for_tenant(tenant)

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    def _simulate(self, job: SimJob):
        if self.config.simulate_fn is not None:
            return self.config.simulate_fn(job)
        return job.simulate()

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            execution = await self._queue.get()
            job = execution.job
            self.metrics.executions += 1
            scene_key = job.capture_key()
            if scene_key in self._resident_scenes:
                self.metrics.warm_scene_hits += 1
            else:
                self._resident_scenes.add(scene_key)
                self.metrics.scene_loads += 1
            try:
                report = await loop.run_in_executor(self._executor, self._simulate, job)
            except Exception as exc:  # held per job, re-raised via the future
                if not execution.future.done():
                    execution.future.set_exception(exc)
            else:
                if not execution.future.done():
                    execution.future.set_result(report)
            # Only now do later identical requests start a new execution
            # (or, with a cache, hit the row their waiters just wrote).
            self._inflight.pop(execution.key, None)
            self._queue.task_done()


def serve(config: ServiceConfig, announce: Callable[[str], None] = print) -> None:
    """Blocking entry point used by ``repro serve``."""

    async def _run() -> None:
        server = SimulationServer(config)
        await server.start()
        announce(
            f"repro serve: listening on {config.host}:{server.port} "
            f"(workers={config.workers}, queue_limit={config.queue_limit}, "
            f"cache={'disabled' if config.cache_dir is None else config.cache_dir})"
        )
        try:
            await server._stopping.wait()
        finally:
            await server.stop()

    asyncio.run(_run())
