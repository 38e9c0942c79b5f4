"""End-to-end tests: a real service in a thread, driven over HTTP."""

import asyncio
import socket
import threading

import pytest

from repro.core.config import RingSystemConfig, SimulationParams, WorkloadConfig
from repro.runtime import MemCache, PointSpec, ResultCache, run_point
from repro.runtime.serialization import canonical_json, result_payload
from repro.service import (
    ServiceClient,
    ServiceError,
    SweepService,
    start_in_thread,
)

WORKLOAD = WorkloadConfig(locality=1.0, miss_rate=0.1, outstanding=4)
PARAMS = SimulationParams(batch_cycles=150, batches=2, seed=7)


def _payload(seed):
    return PointSpec(
        system=RingSystemConfig(topology="2:4"),
        workload=WORKLOAD,
        params=SimulationParams(
            batch_cycles=PARAMS.batch_cycles, batches=PARAMS.batches, seed=seed
        ),
    ).payload()


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    cache_root = tmp_path_factory.mktemp("service-cache")
    svc = SweepService(
        "127.0.0.1",
        0,  # ephemeral port
        shards=1,
        workers_per_shard=2,
        cache=ResultCache(cache_root),
        mem=MemCache(),
        job_workers=2,
    )
    handle = start_in_thread(svc)
    client = ServiceClient("127.0.0.1", svc.port)
    yield svc, client
    client.shutdown()
    handle.stop()


class TestEndpoints:
    def test_healthz(self, service):
        svc, client = service
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["salt"] == svc.salt

    def test_point_computed_then_served_from_memory(self, service):
        __, client = service
        payload = _payload(seed=21)
        first, source_first = client.run_point(payload)
        second, source_second = client.run_point(payload)
        assert source_first == "computed"
        assert source_second == "mem"
        assert first == second

    def test_served_text_is_byte_identical_to_run_point(self, service):
        __, client = service
        payload = _payload(seed=22)
        served, __source = client.run_point(payload)
        direct = run_point(PointSpec.from_payload(payload), cache=None)
        assert served == canonical_json(result_payload(direct))

    def test_derive_seed_accepted(self, service):
        __, client = service
        payload = _payload(seed=1)
        del payload["params"]["seed"]
        text, source = client.run_point(payload, derive_seed=True)
        assert source in ("mem", "disk", "dedup", "computed")
        assert text.startswith("{")

    def test_job_lifecycle_with_results_and_events(self, service):
        __, client = service
        payloads = [_payload(seed) for seed in (31, 32, 33)]
        job_id = client.submit_job(payloads, priority=3)
        status = client.wait_for_job(job_id)
        assert status["state"] == "done"
        assert status["done"] == status["total"] == 3
        assert status["error"] is None

        with_results = client.job_status(job_id, results=True)
        results = with_results["results"]
        assert len(results) == 3
        # Spliced results are byte-exact: re-serializing each element
        # canonically must reproduce the spliced text.
        for payload, parsed in zip(payloads, results):
            direct = run_point(PointSpec.from_payload(payload), cache=None)
            assert canonical_json(parsed) == canonical_json(result_payload(direct))

        events = list(client.stream_events(job_id))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "accepted"
        assert kinds[1] == "started"
        assert kinds.count("point") == 3
        assert kinds[-1] == "finished"
        assert events[-1]["final"] is True
        assert events[-1]["state"] == "done"

    def test_stats_shape(self, service):
        __, client = service
        stats = client.stats()
        assert set(stats) >= {"uptime_sec", "requests", "tiers", "pools", "jobs"}
        assert set(stats["tiers"]["sources"]) == {"mem", "disk", "dedup", "computed"}
        assert stats["requests"].get("GET /healthz", 0) >= 1


class TestBadRequests:
    def test_unknown_route_is_404(self, service):
        __, client = service
        status, __, ___ = client._request("GET", "/nope")
        assert status == 404

    def test_invalid_json_body_is_400(self, service):
        __, client = service
        status, text, __ = client._request("POST", "/points")
        assert status == 400
        assert "JSON" in text

    def test_malformed_point_is_400(self, service):
        __, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.run_point({"system": {"kind": "nonsense"}})
        assert excinfo.value.status == 400

    def test_empty_job_is_400(self, service):
        __, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.submit_job([])
        assert excinfo.value.status == 400

    def test_non_integer_priority_is_400(self, service):
        __, client = service
        with pytest.raises(ServiceError) as excinfo:
            client._json(
                "POST", "/jobs", {"points": [_payload(1)], "priority": "high"}
            )
        assert excinfo.value.status == 400

    def test_unknown_job_is_400(self, service):
        __, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.job_status("job-424242")
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("scheduler", ("active", "batched"))
    def test_retired_scheduler_is_400(self, service, scheduler):
        __, client = service
        payload = _payload(seed=41)
        payload["params"]["scheduler"] = scheduler
        with pytest.raises(ServiceError) as excinfo:
            client.run_point(payload)
        assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "head",
        [
            pytest.param(
                b"POST /points HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
                id="non-numeric-length",
            ),
            pytest.param(
                b"POST /points HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
                id="negative-length",
            ),
            pytest.param(b"GARBAGE\r\n\r\n", id="malformed-request-line"),
        ],
    )
    def test_malformed_head_is_400_and_closes(self, service, head):
        svc, __ = service
        status_line, rest = _raw_exchange(svc.port, head)
        assert status_line == b"HTTP/1.1 400 Bad Request"
        assert b"Connection: close" in rest

    @pytest.mark.parametrize(
        "head",
        [
            pytest.param(
                b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
                id="oversized-request-line",
            ),
            pytest.param(
                b"GET /healthz HTTP/1.1\r\nX-Big: " + b"b" * 70_000 + b"\r\n\r\n",
                id="oversized-header-line",
            ),
            pytest.param(
                b"GET /healthz HTTP/1.1\r\n"
                + b"".join(b"X-H%d: v\r\n" % i for i in range(101))
                + b"\r\n",
                id="too-many-headers",
            ),
        ],
    )
    def test_oversized_head_is_431_and_closes(self, service, head):
        svc, client = service
        status_line, rest = _raw_exchange(svc.port, head)
        assert status_line == b"HTTP/1.1 431 Request Header Fields Too Large"
        assert b"Connection: close" in rest
        assert client.healthz()["status"] == "ok"

    def test_header_count_at_the_cap_is_accepted(self, service):
        svc, __ = service
        head = (
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n"
            + b"".join(b"X-H%d: v\r\n" % i for i in range(99))
            + b"\r\n"
        )
        status_line, __ = _raw_exchange(svc.port, head)
        assert status_line == b"HTTP/1.1 200 OK"


def _raw_exchange(port, head):
    """Send raw bytes; return the status line and the rest of the reply."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(head)
        response = b""
        while chunk := sock.recv(4096):
            response += chunk
    status_line, __, rest = response.partition(b"\r\n")
    return status_line, rest


class TestShutdown:
    def test_idle_keep_alive_connection_closes_quietly(self):
        """Stopping with an idle keep-alive connection open reports nothing
        to the loop's exception handler, through loop teardown."""
        recorded = []

        async def main():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda __, context: recorded.append(context))
            svc = SweepService(
                "127.0.0.1", 0, shards=1, workers_per_shard=1, cache=None,
                mem=MemCache(), job_workers=1,
            )
            await svc.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", svc.port)
            writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
            await writer.drain()
            assert await reader.readline() == b"HTTP/1.1 200 OK\r\n"
            await svc.stop()
            await asyncio.wait_for(svc._shutdown(), timeout=30)
            # The server closed its end: the idle client sees EOF.
            await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()

        asyncio.run(main())
        assert recorded == []


class TestThunderingHerd:
    def test_identical_concurrent_requests_simulate_once(self, service):
        """A herd of identical requests collapses onto one simulation.

        Every client's connection is open and parked at a barrier before
        any request fires, and the simulation is sized to far outlast
        the request fan-in, so all non-leader requests land while the
        leader is still in flight.
        """
        svc, __ = service
        herd = 8
        payload = PointSpec(
            system=RingSystemConfig(topology="2:4"),
            workload=WORKLOAD,
            params=SimulationParams(batch_cycles=2500, batches=3, seed=515151),
        ).payload()
        clients = [ServiceClient("127.0.0.1", svc.port) for __i in range(herd)]
        for client in clients:
            client.healthz()  # force the connection open before the barrier
        computed_before = svc.tiers.counters["computed"]

        barrier = threading.Barrier(herd)
        texts = [None] * herd
        sources = [None] * herd

        def fire(index):
            barrier.wait()
            texts[index], sources[index] = clients[index].run_point(payload)

        threads = [
            threading.Thread(target=fire, args=(index,)) for index in range(herd)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for client in clients:
            client.close()

        assert svc.tiers.counters["computed"] - computed_before == 1
        assert sources.count("computed") == 1
        assert len(set(texts)) == 1
