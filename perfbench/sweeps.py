"""The figure-sweep workloads: ``ring-sweep`` (fig7) and ``mesh-columnar`` (fig12).

One run, all in this process with ``--jobs 2`` worth of pool workers:

1. a cold pass: the figure's sweep against an empty disk cache and an
   empty memory tier, so every point is computed and written;
2. thirty rounds, each of
   * a set-up probe: a fresh interpreter imports the experiments and
     hashes the code salt, then takes two gauge readings;
   * disk-warm passes: the sweep again, with the memoized sweeps and
     the memory tier cleared first, so every point is a disk-cache read.

Every timing is scaled by the host-speed gauge (:mod:`perfbench.gauge`):
warm passes, which run in this thread, by inline readings taken right
before and after each pass; a set-up probe by two readings its own
interpreter takes when it is ready; the cold pass by readings the pool
workers take before and after every point (``read_around_points``),
weighted by the points' time.  Traced runs skip the workers' readings
and scale by the background ones.

A progress hook times every point: the time since the batch's previous
completed point, or since the batch started.  In a warm pass that is
one cache read (spec hash, disk get, decode); in the cold pass it is
the gap between completions of computed points, with ``--jobs 2``
workers computing.

The traced run (``--trace 1``) installs the span wrappers first, makes
an extra untraced cold pass (the reference of the tracing-overhead
ratio), and records spans for the second cold pass and the warm passes.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from typing import Any

from repro.experiments import _shared
from repro.experiments.base import DEFAULT, get_experiment
from repro.runtime import GLOBAL_MEMCACHE, ResultCache, runtime_context

from .common import JOBS, ROOT, Report, cpu_seconds, layer_metrics, peak_rss_mb
from .common import reference_error_pct, time_until_ready
from .gauge import HostGauge, inline_factor, points_factor, read_around_points, reading
from .stats import canonical_digest

#: workload -> (experiment id, scheduler; ``None`` is the CLI default).
SWEEPS = {"ring-sweep": ("fig7", None), "mesh-columnar": ("fig12", "columnar")}

#: The service's counters: nothing serves HTTP in a sweep workload.
SERVICE_COUNTERS = {
    "service.mem_hits": 0,
    "service.disk_hits": 0,
    "service.computed": 0,
    "service.dedup": 0,
    "service.pool_submitted": 0,
    "service.http_errors": 0,
}

ROUNDS = 30

#: A fresh interpreter's set-up, then two gauge readings on its vCPU.
_SETUP_PROBE = (
    "from repro.experiments.base import all_experiments; all_experiments(); "
    "from repro.runtime.cache import code_version_salt; code_version_salt(); "
    "print('ready', flush=True); "
    "from perfbench.gauge import reading; print(reading(), reading())"
)


def warm_passes(seconds: int) -> int:
    return max(ROUNDS, 15 * seconds)


class _Points:
    """Progress hook: counts points per pass and times them.

    A cache hit's time runs from the batch's previous completed point
    (or the batch's start) to its own completion: one cache read.  The
    computed points of a batch finish in overlapping pairs on the pool
    workers, so their gaps say little alone; a batch's miss time is its
    wall time over the points it computed.  Times are monotonic clock
    readings, the clock of the host gauge.
    """

    def __init__(self) -> None:
        #: Per ``run_points`` batch: [tracker, time of its last completion].
        self.batches: list[list[Any]] = []
        self.hits: list[float] = []
        self._cache_hits = 0

    def __call__(self, tracker: Any) -> None:
        now = time.monotonic()
        if not self.batches or self.batches[-1][0] is not tracker:
            self.batches.append([tracker, tracker.started])
            self._cache_hits = 0
        if tracker.cache_hits > self._cache_hits:
            self.hits.append(now - self.batches[-1][1])
        self._cache_hits = tracker.cache_hits
        self.batches[-1][1] = now

    def take(self) -> tuple[int, int, list[float], list[tuple[float, float, int]]]:
        """(attempted, completed, hit times, batches) since the last take.

        A batch that computed points is (start, last completion, points
        computed).
        """
        trackers = [t for t, __ in self.batches]
        misses = [(t.started, last, t.computed) for t, last in self.batches if t.computed]
        taken = (sum(t.total for t in trackers), sum(t.done for t in trackers), self.hits, misses)
        self.batches, self.hits = [], []
        return taken


def run(name: str, seed: int, seconds: int, trace: bool, work: Any, gauge: HostGauge) -> Report:
    report = Report()
    exp_id, scheduler = SWEEPS[name]
    experiment = get_experiment(exp_id)
    sim = replace(DEFAULT.sim, seed=seed)
    if scheduler is not None:
        sim = replace(sim, scheduler=scheduler)
    scale = replace(DEFAULT, sim=sim)

    tracer = None
    if trace:
        from . import tracer as tracing

        tracer = tracing.Tracer(work / "spans")
        pools = tracing.install(tracer)
        ResultCache(work / "salt-probe")  # traced: hashes the code salt once
        tracer.enabled = False
    else:
        read_around_points(work / "points")

    def cold_factor(start: float, end: float) -> float:
        """The pool workers' own readings; the background ones when traced."""
        factor = None if trace else points_factor(work / "points", start, end)
        return gauge.factor(start, end) if factor is None else factor

    points = _Points()
    # Memory-tier hits and gets inside the traced passes.
    mem = [0, 0]

    def count_mem(before: Any) -> None:
        after = GLOBAL_MEMCACHE.stats()
        mem[0] += after.hits - before.hits
        mem[1] += (after.hits - before.hits) + (after.misses - before.misses)

    # -- cold passes ----------------------------------------------------
    # The traced run adds an untraced first pass: the reference of the
    # tracing-overhead ratio.
    cold_passes = 2 if trace else 1
    colds: list[dict[str, Any]] = []
    for index in range(cold_passes):
        if tracer is not None and index == cold_passes - 1:
            pools.clear()
            tracer.enabled = True
        before = GLOBAL_MEMCACHE.stats()
        cold = _cold_pass(experiment, scale, ResultCache(work / f"cache-{index}"), points)
        if index == cold_passes - 1:
            count_mem(before)
        cold["points"], __, cold["misses"] = _count_pass(report, points, f"cold pass {index}")
        if cold["result"] is None:
            report.fail(f"cold pass {index} raised {cold['error']}")
            return report
        cold["digest"] = canonical_digest(json.loads(cold["result"].to_json()))
        colds.append(cold)
    cache = ResultCache(work / f"cache-{cold_passes - 1}")
    digest = colds[-1]["digest"]
    if any(cold["digest"] != digest for cold in colds):
        report.fail("cold passes of the same seed gave different sweeps")
    cold = colds[-1]
    scale_cold = cold_factor(*cold["window"])
    report.add(
        "sweep_s", scale_cold * cold["seconds"], "s", 1,
        f"cold pass of {cold['points']} points; unscaled {cold['seconds']:.4g}",
    )
    report.add(
        "cpu_s", scale_cold * cold["cpu"], "s", 1,
        f"CPU of the cold pass: this process, pool workers, cc; unscaled {cold['cpu']:.4g}",
    )
    raw_misses = [(end - start) / computed for start, end, computed in cold["misses"]]
    misses = [
        1e3 * cold_factor(start, end) * (end - start) / computed
        for start, end, computed in cold["misses"]
    ]
    report.add_median(
        "miss_p50_ms", "ms", misses,
        f"cold-pass batches, wall time per computed point, {JOBS} workers",
        [1e3 * m for m in raw_misses],
    )
    report.lines.append(f"sweep digest {digest} ({exp_id}, seed {seed})")
    windows = [cold["window"]]
    check_start = time.perf_counter()
    failures = experiment.evaluate(cold["result"])
    windows.append((check_start, time.perf_counter()))
    for failure in failures:
        report.fail(f"{exp_id} check: {failure}", 0)
    if failures:
        report.failed += 1

    # -- rounds: set-up probes, then disk-warm passes ------------------
    setups: list[float] = []
    raw_setups: list[float] = []
    warm: list[float] = []
    raw_warm: list[float] = []
    rates: list[float] = []
    raw_rates: list[float] = []
    hits: list[float] = []
    raw_hits: list[float] = []
    for __ in range(ROUNDS):
        if tracer is not None:
            tracer.enabled = False
        probe, readings = time_until_ready([sys.executable, "-c", _SETUP_PROBE], "ready")
        setups.append(inline_factor(*map(float, readings.split())) * probe)
        raw_setups.append(probe)
        if tracer is not None:
            tracer.enabled = True
        before = GLOBAL_MEMCACHE.stats()
        last_reading = reading()
        for __ in range(warm_passes(seconds) // ROUNDS):
            _shared.clear_sweep_caches()
            GLOBAL_MEMCACHE.clear()
            with runtime_context(jobs=JOBS, cache=cache, progress=points):
                start = time.perf_counter()
                result = experiment.run(scale)
                end = time.perf_counter()
            windows.append((start, end))
            this_reading = reading()
            factor = inline_factor(last_reading, this_reading)
            last_reading = this_reading
            done, hit_times, __ = _count_pass(report, points, f"warm pass {len(warm)}")
            warm.append(1e3 * factor * (end - start))
            raw_warm.append(1e3 * (end - start))
            rates.append(done / (end - start) / factor)
            raw_rates.append(done / (end - start))
            hits.extend(factor * h for h in hit_times)
            raw_hits.extend(hit_times)
            if len(hit_times) != done:
                report.fail("a warm pass computed points instead of reading the disk cache")
            if canonical_digest(json.loads(result.to_json())) != digest:
                report.fail("a warm pass's sweep digest differs from the cold pass")
        count_mem(before)
    if tracer is not None:
        tracer.enabled = False
    report.add_median("setup_s", "s", setups, "fresh-interpreter probes", raw_setups)
    report.add_median("warm_sweep_ms", "ms", warm, "disk-warm passes", raw_warm)
    report.add_median("req_per_s", "req/s", rates, "disk-warm passes, points per second", raw_rates)
    report.add_median("hit_p50_ms", "ms", [1e3 * h for h in hits], "disk-warm points", [1e3 * h for h in raw_hits])
    report.add_tail("hit_p99_ms", hits, "disk-warm points", raw_hits)
    report.add("peak_rss_mb", peak_rss_mb(), "MB", 1, "largest max-RSS")

    reference_file = ROOT / "results" / "default" / f"{exp_id}_default.json"
    ref_err = reference_error_pct(
        json.loads(cold["result"].to_json()), json.loads(reference_file.read_text())
    )
    report.lines.append(f"fidelity: {ref_err:.2f}% mean |latency error| vs {reference_file.name}")

    if tracer is not None:
        layers = layer_metrics(tracer.collect(), windows)
        layers["runner.pools_started"] = pools.get("started", 0)
        layers["fidelity.ref_err_pct"] = ref_err
        layers["trace.overhead"] = cold["seconds"] / colds[0]["seconds"]
        layers["memcache.hit_ratio"] = mem[0] / mem[1] if mem[1] else 0.0
        report.layers = {**SERVICE_COUNTERS, **layers}
    return report


def _cold_pass(experiment: Any, scale: Any, cache: Any, points: _Points) -> dict[str, Any]:
    _shared.clear_sweep_caches()
    GLOBAL_MEMCACHE.clear()
    with runtime_context(jobs=JOBS, cache=cache, progress=points):
        cpu = cpu_seconds()
        start = time.monotonic()
        try:
            result, error = experiment.run(scale), None
        except Exception as exc:  # reported as a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        end = time.monotonic()
        cpu = cpu_seconds() - cpu
    return {"result": result, "error": error, "seconds": end - start, "cpu": cpu, "window": (start, end)}


def _count_pass(
    report: Report, points: _Points, label: str
) -> tuple[int, list[float], list[tuple[float, float, int]]]:
    """Counts a pass's points; returns (completed, hit times, computing batches)."""
    attempted, done, hits, misses = points.take()
    report.attempted += attempted
    if done != attempted:
        report.fail(f"{label}: {attempted - done} point(s) did not complete", attempted - done)
    return done, hits, misses
