"""The ``service-mix`` workload: the sweep service under a mixed point load.

``python -m repro.service`` runs as a child process with 1 shard x 2
pool workers and an empty disk cache.  After it is up, 12 rounds, each
with its own working set of 64 small ring and mesh points on the
default scheduler:

1. a set-up probe: a second service is launched until it is bound
   and both pool workers exist, then stopped (``setup_s`` is the median
   of these launches);
2. cold job: the working set as one ``POST /jobs``, followed on its
   event stream until the final event (every point computed and
   written to both tiers);
3. warm jobs: the same working set resubmitted, served from memory;
4. closed loop: 2 keep-alive clients on one event loop, each waiting
   for its reply before the next request, issue ``POST /points``.  19 of
   every 20 requests of a client name a working-set point (memory
   hits); every 20th names a fresh seed of one fixed small ring (a
   computed point and a cache write).

The seed is the working sets' base seed and drives the request plans
and the fresh seeds; the service sees only the generated payloads.
Every timing is scaled by the host-speed gauge (:mod:`perfbench.gauge`):
work that simulates points (cold jobs, fresh requests, a round's CPU)
by the readings the pool workers take around them, weighted by the
points' time; the rest (set-up, warm jobs, hits, the loop rate) by the
background readings over its own time.
The traced run first times one cold job on an untraced service, for
the tracing-overhead ratio, then runs everything on a service launched
through ``perfbench/service_main.py``, which installs the span wrappers
before the pools fork.  An untraced run launches its main service (not
the set-up probes) through the same script with the host-speed readings
around every point instead.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import random
import re
import signal
import subprocess
import sys
import time
from typing import Any

from repro.core.config import CL_BUFFER, MeshSystemConfig, RingSystemConfig
from repro.core.config import SimulationParams, WorkloadConfig
from repro.runtime import PointSpec, run_point
from repro.runtime.serialization import canonical_json, result_payload

from .common import JOBS, ROOT, Report, child_pids, cpu_seconds, layer_metrics
from .common import peak_rss_mb, proc_tree_cpu, repro_env
from .gauge import HostGauge, points_factor

ROUNDS = 12
WARM_JOBS = 4
FRESH_EVERY = 20
_LISTENING = re.compile(r"listening on ([^\s:]+):(\d+)")

#: One loop response: (kind, spec, working-set index or -1, status, body).
Served = tuple[str, Any, int, int, bytes]
#: A timing and the monotonic interval it covers: (value, start, end).
Timed = tuple[float, float, float]


def loop_requests(seconds: int) -> int:
    # >= 1060 requests keeps >= 1000 hits over the run, enough for a p99;
    # 8,400 at 30 seconds give it about 80 samples beyond.
    return max(1060, 280 * seconds)


def working_set(seed: int) -> list[PointSpec]:
    """64 small points: 32 rings and 32 meshes, per-point seeds from *seed*."""
    params = SimulationParams(batch_cycles=250, batches=3, seed=seed)
    workloads = [
        WorkloadConfig(locality=locality, outstanding=outstanding)
        for locality in (1.0, 0.3)
        for outstanding in (1, 4)
    ]
    systems: list[Any] = [
        RingSystemConfig(topology=topology, cache_line_bytes=line)
        for topology in ("4", "6", "2:3", "3:3")
        for line in (32, 64)
    ]
    systems += [
        MeshSystemConfig(side=side, cache_line_bytes=line, buffer_flits=buffer)
        for side in (2, 3)
        for line in (32, 64)
        for buffer in (4, CL_BUFFER)
    ]
    return [PointSpec.of(system, wl, params) for system in systems for wl in workloads]


def fresh_spec(fresh_seed: int) -> PointSpec:
    """The fixed small ring of the fresh requests, at a pinned seed."""
    return PointSpec(
        system=RingSystemConfig(topology="2:6", cache_line_bytes=32),
        workload=WorkloadConfig(),
        params=SimulationParams(batch_cycles=500, batches=2, seed=fresh_seed),
    )


class Service:
    """A ``repro.service`` child process on an ephemeral port."""

    def __init__(self, cache_dir: Any, wrappers: "tuple[str, Any] | None" = None) -> None:
        """*wrappers*: ``("trace", spans_dir)`` or ``("points", points_dir)``."""
        args = [
            "--host", "127.0.0.1", "--port", "0", "--shards", "1",
            "--workers-per-shard", str(JOBS), "--cache-dir", str(cache_dir),
        ]
        if wrappers is None:
            argv = [sys.executable, "-m", "repro.service", *args]
        else:
            mode, out_dir = wrappers
            argv = [sys.executable, str(ROOT / "perfbench" / "service_main.py"), mode, str(out_dir), *args]
        start = time.monotonic()
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=repro_env(), stdout=subprocess.PIPE, text=True)
        try:
            self.host, self.port = self._wait_bound()
            self._wait_workers()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        ready = time.monotonic()
        #: Launch to ready, and the interval: (seconds, start, end).
        self.ready: Timed = (ready - start, start, ready)

    def _wait_bound(self) -> tuple[str, int]:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            match = _LISTENING.search(line)
            if match:
                return match.group(1), int(match.group(2))
        raise RuntimeError("service exited before binding")

    def _wait_workers(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while len(child_pids(self.proc.pid)) < JOBS:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("service pool workers did not start")
            time.sleep(0.002)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def stop(self) -> None:
        """SIGTERM, then wait for the clean shutdown."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            assert self.proc.stdout is not None
            self.proc.stdout.read()
            if self.proc.wait(timeout=60) != 0:
                raise RuntimeError(f"service exited with {self.proc.returncode}")
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def _call(conn: http.client.HTTPConnection, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes, str | None]:
    headers = {"Content-Type": "application/json"} if body is not None else {}
    conn.request(method, path, body=body, headers=headers)
    resp = conn.getresponse()
    data = resp.read()
    return resp.status, data, resp.getheader("X-Repro-Source")


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    """One HTTP/1.1 response with a Content-Length body: (status, body)."""
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, __, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


def run_job(service: Service, payloads: list[dict]) -> tuple[Timed, dict[str, Any]]:
    """Submit one job and follow its event stream to the end.

    Returns ((seconds from submit to the finished event, start, end),
    the job's status with results).
    """
    conn = service.connect()
    events = service.connect()
    try:
        body = json.dumps({"points": payloads}, sort_keys=True).encode()
        start = time.monotonic()
        status, data, __ = _call(conn, "POST", "/jobs", body)
        if status != 202:
            raise RuntimeError(f"POST /jobs answered {status}: {data[:200]!r}")
        job = json.loads(data)["job"]
        events.request("GET", f"/jobs/{job}/events")
        stream = events.getresponse()
        for line in iter(stream.readline, b""):
            if json.loads(line).get("final"):
                break
        end = time.monotonic()
        status, data, __ = _call(conn, "GET", f"/jobs/{job}?results=1")
        return (end - start, start, end), json.loads(data)
    finally:
        events.close()
        conn.close()


def run(name: str, seed: int, seconds: int, trace: bool, work: Any, gauge: HostGauge) -> Report:
    report = Report()
    rng = random.Random(seed)
    # One working set per round, each with its own base seed.
    sets = [working_set(seed * ROUNDS + index) for index in range(ROUNDS)]
    total = loop_requests(seconds)
    fresh = iter(rng.sample(range(1, 2**31 - 1), total // FRESH_EVERY + ROUNDS * JOBS))

    points = work / "points"
    setups: list[Timed] = []
    reference_s = None
    if trace:
        service = Service(work / "cache")
        reference_s = run_job(service, [spec.payload() for spec in sets[0]])[0][0]
        service.stop()
        service = Service(work / "cache-traced", ("trace", work / "spans"))
    else:
        service = Service(work / "cache", ("points", points))
    mix = _Mix(service)
    try:
        for index, specs in enumerate(sets):
            probe = Service(work / f"probe-{index}")
            probe.stop()
            setups.append(probe.ready)
            cpu, start = cpu_seconds() + proc_tree_cpu(service.proc.pid), time.monotonic()
            mix.round(report, specs, _plans(rng, fresh, specs, total // ROUNDS))
            cpu = cpu_seconds() + proc_tree_cpu(service.proc.pid) - cpu
            mix.cpu.append((cpu, start, time.monotonic()))
        stats = mix.stats()
    finally:
        service.stop()

    def scaled(timed: list[Timed], unit: float = 1.0, computed: bool = False) -> list[float]:
        """Scaled by the workers' readings when *computed*, else the background ones."""
        factors = [
            (points_factor(points, start, end) if computed else None) or gauge.factor(start, end)
            for __, start, end in timed
        ]
        return [unit * value * factor for (value, __, __), factor in zip(timed, factors)]

    def raw(timed: list[Timed], unit: float = 1.0) -> list[float]:
        return [unit * value for value, __, __ in timed]

    report.add_median("setup_s", "s", scaled(setups), "launches to bound + workers spawned", raw(setups))
    report.add_median(
        "sweep_s", "s", scaled(mix.cold, computed=True), f"cold POST /jobs of {len(sets[0])} points", raw(mix.cold)
    )
    report.add_median("warm_sweep_ms", "ms", scaled(mix.warm, 1e3), "warm POST /jobs", raw(mix.warm, 1e3))
    report.add_median(
        "cpu_s", "s", scaled(mix.cpu, computed=True), "rounds, CPU of this process + service tree", raw(mix.cpu)
    )
    rates = [rate / gauge.factor(start, end) for rate, start, end in mix.rates]
    report.add_median("req_per_s", "req/s", rates, f"rounds of {JOBS} closed-loop clients", raw(mix.rates))
    hits = scaled(mix.hits)
    report.add_median("hit_p50_ms", "ms", [1e3 * h for h in hits], "working-set POST /points", raw(mix.hits, 1e3))
    # The tail is waiting, for a CPU or for the event loop to finish a
    # fresh point's cache write, which a speed reading does not predict:
    # it is reported as measured.
    report.add_tail("hit_p99_ms", raw(mix.hits), "working-set POST /points, unscaled")
    report.add_median(
        "miss_p50_ms", "ms", scaled(mix.misses, 1e3, computed=True), "fresh POST /points", raw(mix.misses, 1e3)
    )
    report.add("peak_rss_mb", peak_rss_mb(), "MB", 1, "largest max-RSS")

    # A sample of served texts must be byte-identical to a direct run_point.
    sample = [r for r in mix.served if r[0] == "hit"][:4] + [r for r in mix.served if r[0] == "miss"][:2]
    for kind, spec, __, __, body in sample:
        direct = canonical_json(result_payload(run_point(spec, cache=None))).encode()
        if body != direct:
            report.fail(f"a served {kind} differs from a direct run_point")

    tiers = stats["tiers"]
    sources = tiers["sources"]
    memory = tiers["memory"]
    gets = memory["hits"] + memory["misses"]
    report.lines.append(f"service sources {json.dumps(sources, sort_keys=True)}")
    if trace:
        from .tracer import read_spans

        report.layers = layer_metrics(read_spans(work / "spans"), mix.windows)
        report.layers.update({
            "runner.pools_started": 0,
            "memcache.hit_ratio": memory["hits"] / gets if gets else 0.0,
            "service.mem_hits": sources.get("mem", 0),
            "service.disk_hits": sources.get("disk", 0),
            "service.computed": sources.get("computed", 0),
            "service.dedup": sources.get("dedup", 0),
            "service.pool_submitted": sum(stats["pools"]["submitted"]),
            "service.http_errors": mix.http_errors,
            "fidelity.ref_err_pct": 0.0,
            "trace.overhead": mix.cold[0][0] / reference_s,
        })
    return report


#: A client's request plan: (kind, spec, working-set index or -1, body).
Plan = list[tuple[str, Any, int, bytes]]


def _plans(rng: random.Random, fresh: Any, specs: list[Any], count: int) -> list[Plan]:
    """*count* requests split over the clients; every 20th of a client is fresh."""
    plans: list[Plan] = [[] for __ in range(JOBS)]
    for index in range(count):
        plan = plans[index % JOBS]
        if len(plan) % FRESH_EVERY == FRESH_EVERY - 1:
            kind, spec, pick = "miss", fresh_spec(next(fresh)), -1
        else:
            pick = rng.randrange(len(specs))
            kind, spec = "hit", specs[pick]
        plan.append((kind, spec, pick, json.dumps(spec.payload(), sort_keys=True).encode()))
    return plans


class _Mix:
    """The measured rounds against one service: jobs, then a loop chunk."""

    def __init__(self, service: Service) -> None:
        self.service = service
        #: Job times, request latencies, loop rates and round CPU, each
        #: with the interval it covers.
        self.cold: list[Timed] = []
        self.warm: list[Timed] = []
        self.hits: list[Timed] = []
        self.misses: list[Timed] = []
        self.rates: list[Timed] = []
        self.cpu: list[Timed] = []
        self.windows: list[tuple[float, float]] = []
        self.served: list[Served] = []
        self.http_errors = 0

    def _job(self, report: Report, payloads: list[dict]) -> tuple[Timed, dict[str, Any]]:
        timed, status = run_job(self.service, payloads)
        self.windows.append(timed[1:])
        report.attempted += len(payloads)
        return timed, status

    def round(self, report: Report, specs: list[Any], plans: list[Plan]) -> None:
        payloads = [spec.payload() for spec in specs]
        timed, cold = self._job(report, payloads)
        self.cold.append(timed)
        results = cold.get("results") or []
        if cold.get("state") != "done" or len(results) != len(specs):
            report.fail(f"cold job ended {cold.get('state')} with {len(results)} results", len(specs))
        for __ in range(WARM_JOBS):
            timed, status = self._job(report, payloads)
            self.warm.append(timed)
            if status.get("state") != "done" or status.get("results") != results:
                report.fail("a warm job's results differ from the cold job", len(specs))
        self._loop(report, plans, results)

    def _loop(self, report: Report, plans: list[Plan], results: list[Any]) -> None:
        served: list[list[tuple[Served, float, float]]] = [[] for __ in plans]
        errors: list[str] = []
        start, end = asyncio.run(self._clients(plans, served, errors))
        self.windows.append((start, end))

        attempted = sum(len(plan) for plan in plans)
        rows = [row for rows in served for row in rows]
        self.rates.append((len(rows) / (end - start), start, end))
        latencies: dict[str, list[Timed]] = {"hit": self.hits, "miss": self.misses}
        report.attempted += attempted
        report.failed += attempted - len(rows)
        for error in errors:
            report.problems.append(error)
        by_pick: dict[int, bytes] = {}
        for (kind, spec, pick, status, body), sent, done in rows:
            self.served.append((kind, spec, pick, status, body))
            if not 200 <= status < 300:
                self.http_errors += 1
                report.fail(f"POST /points answered {status}")
                continue
            latencies[kind].append((done - sent, sent, done))
            if kind == "hit":
                first = by_pick.setdefault(pick, body)
                if body != first or (results and json.loads(body) != results[pick]):
                    report.fail("a working-set response differs from the cold job's result")

    async def _clients(
        self, plans: list[Plan], served: list[list[tuple[Served, float, float]]], errors: list[str]
    ) -> tuple[float, float]:
        """Run one closed-loop client per plan, all on one event loop.

        One thread serves every connection, so the clients never wait
        on each other for the interpreter lock.  Each response is stored
        with the monotonic times its request was sent and answered.
        Returns the loop's (start, end).
        """
        streams = [
            await asyncio.open_connection(self.service.host, self.service.port) for __ in plans
        ]

        async def client(slot: int) -> None:
            reader, writer = streams[slot]
            try:
                for kind, spec, pick, body in plans[slot]:
                    sent = time.monotonic()
                    writer.write(
                        b"POST /points HTTP/1.1\r\nHost: perfbench\r\n"
                        b"Content-Type: application/json\r\n"
                        b"Content-Length: %d\r\n\r\n" % len(body) + body
                    )
                    await writer.drain()
                    status, data = await _read_response(reader)
                    served[slot].append(((kind, spec, pick, status, data), sent, time.monotonic()))
            except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
                # The rest of this client's plan is lost.
                errors.append(f"client {slot}: {type(exc).__name__}: {exc}")
            finally:
                writer.close()

        start = time.monotonic()
        await asyncio.gather(*(client(slot) for slot in range(len(plans))))
        end = time.monotonic()
        for __, writer in streams:
            try:
                await writer.wait_closed()
            except OSError:
                pass
        return start, end

    def stats(self) -> dict[str, Any]:
        conn = self.service.connect()
        try:
            status, data, __ = _call(conn, "GET", "/stats")
        finally:
            conn.close()
        return json.loads(data)
