"""Tests for the multi-tenant simulation service.

Covers the tentpole contracts: N-client identical-cell storms resolve to
exactly one execution, bounded-queue admission rejects overload, waiter
timeouts never cancel the shared execution, a client disconnecting
mid-coalesce leaves the remaining waiters whole, tenants get isolated
cache namespaces, and the loadgen's responses are byte-identical to
direct engine execution.

The edge-case tests drive the real asyncio server in-process with a
controllable ``simulate_fn`` (a ``threading.Event``-gated stub running in
the worker pool's executor threads), so "worker busy" and "queue full"
states are deterministic rather than timing-dependent.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.experiments.engine import SimJob
from repro.hw.stages import FrameReport, SequenceReport, StageTraffic
from repro.service import (
    LoadGenConfig,
    ServiceConfig,
    SimulationServer,
    build_traffic,
    run_loadgen,
)
from repro.service.loadgen import _Client
from repro.service import protocol


def make_report(system: str = "neo", scene: str = "family") -> SequenceReport:
    return SequenceReport(
        system=system,
        scene=scene,
        resolution=(8, 8),
        frames=[FrameReport(0, StageTraffic(100.0, 20.0, 30.0), 1e-3, 2e-3)],
    )


def job_payload(frames: int = 1, scene: str = "family") -> dict:
    return SimJob.make("neo", scene, "hd", frames=frames).to_payload()


async def wait_until(predicate, timeout_s: float = 5.0) -> None:
    deadline = time.perf_counter() + timeout_s
    while not predicate():
        if time.perf_counter() > deadline:
            raise AssertionError("condition not reached before timeout")
        await asyncio.sleep(0.01)


class GatedSim:
    """simulate_fn stub: blocks worker threads until released."""

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, job: SimJob) -> SequenceReport:
        with self._lock:
            self.calls += 1
        assert self.gate.wait(timeout=10.0), "test never released the gate"
        return make_report(job.system, job.scene)


async def start_server(**kwargs) -> SimulationServer:
    kwargs.setdefault("cache_dir", None)
    config = ServiceConfig(port=0, **kwargs)
    server = SimulationServer(config)
    await server.start()
    return server


async def connect(server: SimulationServer) -> _Client:
    client = _Client("127.0.0.1", server.port)
    await client.connect()
    return client


class TestCoalescing:
    def test_identical_cell_storm_executes_once(self):
        async def scenario():
            sim = GatedSim()
            server = await start_server(workers=2, simulate_fn=sim)
            clients = [await connect(server) for _ in range(6)]
            try:
                # All six clients ask for the same cell while it is blocked
                # in the worker: one execution, five coalesced joins.
                tasks = [
                    asyncio.create_task(
                        c.request(
                            {"op": "simulate", "tenant": f"t{i}", "job": job_payload()}
                        )
                    )
                    for i, c in enumerate(clients)
                ]
                await wait_until(lambda: sim.calls == 1)
                await wait_until(lambda: server.metrics.coalesced == 5)
                sim.gate.set()
                responses = await asyncio.gather(*tasks)
            finally:
                for c in clients:
                    await c.close()
                await server.stop()
            assert [r["status"] for r in responses] == ["ok"] * 6
            assert sim.calls == 1
            assert server.metrics.executions == 1
            assert server.metrics.coalesced == 5
            assert server.metrics.coalesce_rate == pytest.approx(5 / 6)
            origins = sorted(r["origin"] for r in responses)
            assert origins == ["coalesced"] * 5 + ["executed"]
            payloads = {protocol.canonical_bytes(r["report"]) for r in responses}
            assert len(payloads) == 1  # every waiter saw the same result

        asyncio.run(scenario())

    def test_distinct_cells_do_not_coalesce(self):
        async def scenario():
            sim = GatedSim()
            sim.gate.set()  # never block
            server = await start_server(workers=2, simulate_fn=sim)
            client = await connect(server)
            try:
                for frames in (1, 2, 3):
                    response = await client.request(
                        {"op": "simulate", "job": job_payload(frames=frames)}
                    )
                    assert response["status"] == "ok"
            finally:
                await client.close()
                await server.stop()
            assert server.metrics.executions == 3
            assert server.metrics.coalesced == 0

        asyncio.run(scenario())


class TestWarmScenes:
    def test_capture_key_counts_trajectories_apart(self):
        # Two jobs that differ only in trajectory capture two workloads.
        async def scenario():
            sim = GatedSim()
            sim.gate.set()
            server = await start_server(workers=1, simulate_fn=sim)
            client = await connect(server)
            try:
                for trajectory in ("orbit", "dolly"):
                    job = {**job_payload(), "trajectory": trajectory}
                    response = await client.request({"op": "simulate", "job": job})
                    assert response["status"] == "ok"
            finally:
                await client.close()
                await server.stop()
            assert server.metrics.executions == 2
            assert server.metrics.scene_loads == 2
            assert server.metrics.warm_scene_hits == 0

        asyncio.run(scenario())


class TestAdmissionControl:
    def test_queue_full_rejection(self):
        async def scenario():
            sim = GatedSim()
            server = await start_server(workers=1, queue_limit=1, simulate_fn=sim)
            client = await connect(server)
            try:
                # A occupies the single worker; B fills the single queue
                # slot; C must be rejected with explicit backpressure.
                task_a = asyncio.create_task(
                    client.request({"op": "simulate", "job": job_payload(frames=1)})
                )
                await wait_until(lambda: sim.calls == 1)
                task_b = asyncio.create_task(
                    client.request({"op": "simulate", "job": job_payload(frames=2)})
                )
                await wait_until(lambda: server._queue.full())
                rejected = await client.request(
                    {"op": "simulate", "job": job_payload(frames=3)}
                )
                assert rejected["status"] == "rejected"
                assert rejected["reason"] == "queue_full"
                assert server.metrics.rejected == 1
                # A coalesced join on the *queued* cell is still admitted:
                # it adds no work to the queue.
                task_b2 = asyncio.create_task(
                    client.request({"op": "simulate", "job": job_payload(frames=2)})
                )
                await wait_until(lambda: server.metrics.coalesced == 1)
                sim.gate.set()
                responses = await asyncio.gather(task_a, task_b, task_b2)
            finally:
                await client.close()
                await server.stop()
            assert [r["status"] for r in responses] == ["ok"] * 3
            assert server.metrics.executions == 2

        asyncio.run(scenario())

    def test_retry_accounting(self):
        async def scenario():
            sim = GatedSim()
            sim.gate.set()
            server = await start_server(workers=1, simulate_fn=sim)
            client = await connect(server)
            try:
                response = await client.request(
                    {"op": "simulate", "job": job_payload(), "attempt": 2}
                )
                assert response["status"] == "ok"
            finally:
                await client.close()
                await server.stop()
            assert server.metrics.retries == 1

        asyncio.run(scenario())


class TestTimeouts:
    def test_waiter_timeout_does_not_cancel_execution(self):
        async def scenario():
            sim = GatedSim()
            server = await start_server(workers=1, simulate_fn=sim)
            client = await connect(server)
            try:
                timed_out = await client.request(
                    {"op": "simulate", "job": job_payload(), "timeout_s": 0.05}
                )
                assert timed_out["status"] == "timeout"
                assert server.metrics.timeouts == 1
                # The execution survived the waiter's timeout: releasing the
                # gate lets a second request for the same cell coalesce onto
                # it (or re-execute if it already finished) and succeed.
                second = asyncio.create_task(
                    client.request(
                        {"op": "simulate", "job": job_payload(), "timeout_s": 10.0}
                    )
                )
                sim.gate.set()
                response = await second
                assert response["status"] == "ok"
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())


class TestDisconnects:
    def test_disconnect_mid_coalesce_leaves_other_waiters_whole(self):
        async def scenario():
            sim = GatedSim()
            server = await start_server(workers=1, simulate_fn=sim)
            leaver = await connect(server)
            stayer = await connect(server)
            try:
                doomed = asyncio.create_task(
                    leaver.request({"op": "simulate", "job": job_payload()})
                )
                await wait_until(lambda: sim.calls == 1)
                surviving = asyncio.create_task(
                    stayer.request({"op": "simulate", "job": job_payload()})
                )
                await wait_until(lambda: server.metrics.coalesced == 1)
                # The initiating client vanishes while the execution runs.
                await leaver.close()
                doomed.cancel()
                sim.gate.set()
                response = await surviving
                assert response["status"] == "ok"
                assert server.metrics.executions == 1
                await wait_until(lambda: server.metrics.disconnects >= 1)
            finally:
                await stayer.close()
                await server.stop()

        asyncio.run(scenario())


class TestTenantCaches:
    def test_tenant_isolation_and_shared_opt_in(self, tmp_path):
        async def scenario():
            sim = GatedSim()
            sim.gate.set()
            server = await start_server(
                workers=1, simulate_fn=sim, cache_dir=str(tmp_path / "svc")
            )
            client = await connect(server)
            try:
                async def simulate(tenant, shared=False):
                    return await client.request(
                        {
                            "op": "simulate",
                            "tenant": tenant,
                            "job": job_payload(),
                            "shared_cache": shared,
                        }
                    )

                first = await simulate("acme")
                assert first["origin"] == "executed"
                # Same tenant, same cell: served from acme's namespace.
                assert (await simulate("acme"))["origin"] == "cache"
                # Different tenant: acme's row is invisible -> re-executes.
                assert (await simulate("globex"))["origin"] == "executed"
                # Shared namespace is opt-in for both sides.
                assert (await simulate("acme", shared=True))["origin"] == "executed"
                assert (await simulate("globex", shared=True))["origin"] == "cache"
            finally:
                await client.close()
                await server.stop()
            assert (tmp_path / "svc" / "tenants" / "acme" / "reports").is_dir()
            assert (tmp_path / "svc" / "tenants" / "globex" / "reports").is_dir()
            assert (tmp_path / "svc" / "reports").is_dir()  # shared opt-in rows
            assert server.metrics.cache_hits == 2
            assert server.metrics.executions == 3

        asyncio.run(scenario())

    def test_invalid_tenant_name_is_an_error_response(self, tmp_path):
        async def scenario():
            server = await start_server(
                workers=1, cache_dir=str(tmp_path / "svc"), simulate_fn=lambda j: make_report()
            )
            client = await connect(server)
            try:
                response = await client.request(
                    {"op": "simulate", "tenant": "../escape", "job": job_payload()}
                )
                assert response["status"] == "error"
                assert "tenant" in response["error"]
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())


class TestProtocol:
    def test_job_payload_round_trip(self):
        job = SimJob.make("neo", "family", "qhd", frames=4, speed=2.0, cores=8)
        assert SimJob.from_payload(job.to_payload()) == job
        swept = SimJob("neo", "family", "hd", 4, trajectory="shake", num_gaussians=256,
                       capture_width=240, capture_height=135)
        assert SimJob.from_payload(swept.to_payload()) == swept

    def test_job_payload_normalizes_spellings(self):
        a = SimJob.from_payload({"system": "neo", "scene": "family", "resolution": "hd",
                                 "frames": 2, "speed": 1, "cores": 16.0})
        b = SimJob.make("neo", "family", "hd", frames=2)
        assert a == b

    def test_report_payload_round_trip(self):
        report = make_report()
        payload = protocol.report_to_payload(report)
        rebuilt = protocol.report_from_payload(payload)
        assert protocol.report_to_payload(rebuilt) == payload
        # Canonical bytes are stable across a JSON round trip.
        import json

        reparsed = json.loads(protocol.canonical_bytes(payload))
        assert protocol.canonical_bytes(reparsed) == protocol.canonical_bytes(payload)

    def test_unknown_op_and_ping(self):
        async def scenario():
            server = await start_server(workers=1)
            client = await connect(server)
            try:
                pong = await client.request({"op": "ping"})
                assert pong["status"] == "ok"
                assert pong["protocol"] == protocol.PROTOCOL
                bad = await client.request({"op": "warp"})
                assert bad["status"] == "error"
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())

    def test_unknown_system_is_an_error_response(self):
        async def scenario():
            server = await start_server(workers=1)
            client = await connect(server)
            try:
                response = await client.request(
                    {"op": "simulate",
                     "job": {"system": "tpu", "scene": "family", "resolution": "hd"}}
                )
                assert response["status"] == "error"
                assert "tpu" in response["error"]
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())


MALFORMED_JOBS = [
    pytest.param({"speed": float("nan")}, id="speed-nan"),
    pytest.param({"scene": [1]}, id="scene-list"),
    pytest.param({"frames": "many"}, id="frames-str"),
    pytest.param({"frames": 10**9}, id="frames-over-cap"),
    pytest.param({"cores": 0}, id="cores-zero"),
    pytest.param({"kwargs": {"name": "gpu"}}, id="model-kwargs"),
    pytest.param({"bandwith_gbps": 25.6}, id="typo-key"),
    pytest.param({"trajectory": "spiral"}, id="trajectory-unknown"),
    pytest.param({"num_gaussians": 4}, id="gaussians-under-min"),
    pytest.param({"num_gaussians": 10**9}, id="gaussians-over-cap"),
    pytest.param({"capture_width": 10**6}, id="capture-over-cap"),
    pytest.param({"capture_height": 16.5}, id="capture-float"),
]


class TestMalformedJobs:
    @pytest.mark.parametrize("override", MALFORMED_JOBS)
    def test_job_from_payload_rejects(self, override):
        with pytest.raises(ValueError):
            protocol.job_from_payload({**job_payload(), **override})

    @pytest.mark.parametrize("override", MALFORMED_JOBS)
    def test_server_answers_one_error_and_caches_nothing(self, override, tmp_path):
        async def scenario():
            sim = GatedSim()
            sim.gate.set()
            cache_dir = tmp_path / "svc"
            server = await start_server(workers=1, simulate_fn=sim, cache_dir=str(cache_dir))
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port, limit=protocol.MAX_MESSAGE_BYTES
            )
            try:
                job = {**job_payload(), **override}
                writer.write(protocol.encode_message({"op": "simulate", "id": 1, "job": job}))
                writer.write(protocol.encode_message({"op": "ping", "id": 2}))
                await writer.drain()
                first = await asyncio.wait_for(protocol.read_message(reader), 10.0)
                second = await asyncio.wait_for(protocol.read_message(reader), 10.0)
            finally:
                writer.close()
                await server.stop()
            assert first["id"] == 1 and first["status"] == "error"
            # The next line answers the ping: the job drew exactly one response.
            assert second["id"] == 2 and second["protocol"] == protocol.PROTOCOL
            assert server.metrics.errors == 1
            assert sim.calls == 0
            assert not [p for p in cache_dir.rglob("*") if p.is_file()]

        asyncio.run(scenario())

    def test_simjob_rejects_out_of_domain_fields(self):
        with pytest.raises(ValueError, match="resolution"):
            SimJob.make("neo", "family", "8k")
        with pytest.raises(ValueError, match="frames"):
            SimJob.make("neo", "family", "hd", frames=True)
        with pytest.raises(ValueError, match="frames"):
            SimJob.make("neo", "family", "hd", frames=2.0)
        with pytest.raises(ValueError, match="bandwidth_gbps"):
            SimJob.make("neo", "family", "hd", bandwidth_gbps=float("inf"))
        with pytest.raises(ValueError, match="speed"):
            SimJob.make("neo", "family", "hd", speed=-1.0)


class TestWorker:
    def test_worker_drains_queue_and_reports_stay_byte_identical(self):
        # Queue four distinct cells before the worker starts: the worker
        # must run each one, resolve every future with a report
        # byte-identical to direct simulation, and leave nothing in flight.
        async def scenario():
            from concurrent.futures import ThreadPoolExecutor

            from repro.runtime.cache import stable_key
            from repro.service.server import _Execution

            jobs = [
                SimJob.make("neo", "family", "hd", frames=2, bandwidth_gbps=bw).resolved()
                for bw in (20.0, 35.0, 52.0)
            ]
            jobs.append(SimJob.make("gscore", "family", "hd", frames=2).resolved())
            server = SimulationServer(ServiceConfig(port=0, workers=1, cache_dir=None))
            server._executor = ThreadPoolExecutor(max_workers=1)
            loop = asyncio.get_running_loop()
            executions = [
                _Execution(stable_key(job.cache_spec()[1]), job, loop.create_future())
                for job in jobs
            ]
            for execution in executions:
                server._inflight[execution.key] = execution
                server._queue.put_nowait(execution)
            worker = asyncio.create_task(server._worker())
            try:
                reports = await asyncio.gather(*(e.future for e in executions))
                await server._queue.join()
            finally:
                worker.cancel()
                server._executor.shutdown(wait=False)
            return server, jobs, reports

        server, jobs, reports = asyncio.run(scenario())
        assert len(set(jobs)) == 4
        assert server.metrics.executions == 4
        assert not server._inflight
        for job, report in zip(jobs, reports):
            direct = protocol.canonical_bytes(protocol.report_to_payload(job.simulate()))
            served = protocol.canonical_bytes(protocol.report_to_payload(report))
            assert served == direct


class TestLoadGen:
    def test_traffic_is_seed_deterministic(self):
        config = LoadGenConfig(requests=50, seed=9)
        pool_a, cells_a, tenants_a, arrivals_a = build_traffic(config)
        pool_b, cells_b, tenants_b, arrivals_b = build_traffic(config)
        assert pool_a == pool_b
        assert (cells_a == cells_b).all()
        assert (tenants_a == tenants_b).all()
        assert (arrivals_a == arrivals_b).all()
        # Arrival offsets are an open-loop cumulative process.
        assert (arrivals_a[1:] >= arrivals_a[:-1]).all()

    @pytest.mark.slow
    def test_end_to_end_byte_identity_and_artifact(self, tmp_path):
        async def scenario():
            server = await start_server(workers=2, queue_limit=16)
            config = LoadGenConfig(
                port=server.port,
                requests=24,
                rate=400.0,
                tenants=3,
                seed=3,
                frames=1,
                scenes=("horse",),
                systems=("neo", "orin"),
                pool_size=3,
                wait_server_s=5.0,
            )
            try:
                result = await run_loadgen(config, verify=True)
            finally:
                await server.stop()
            return result

        result = asyncio.run(scenario())
        assert result.ok
        assert result.verification["byte_identical"]
        assert result.verification["checked"] >= 1
        artifact = result.artifact()
        assert artifact["schema"] == "repro-service-bench/1"
        assert artifact["results"]["ok"] == 24
        assert artifact["latency_ms"]["p50"] > 0
        assert artifact["throughput_rps"] > 0
        # 24 requests over <= 3 distinct cells must coalesce somewhere.
        assert artifact["server"]["coalesced"] > 0
        assert artifact["server"]["coalesce_rate"] > 0
