"""What every workload shares: the report, host measurements, layer math."""

from __future__ import annotations

import bisect
import os
import pathlib
import resource
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from .stats import Span, covered, median, merge, overlap, percentile, self_times, tail_percentile

#: Checkout root: the directory holding ``src/`` and ``perfbench/``.
ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Worker processes and closed-loop connections: the host's 2 cores.
JOBS = 2

@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    note: str = ""


@dataclass
class Report:
    """One workload run: metrics by name, operation counts, log lines."""

    metrics: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    #: Per-layer metrics; filled by traced runs only.
    layers: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, value: float, unit: str, samples: int = 1, note: str = "") -> None:
        self.metrics[name] = Metric(float(value), unit, samples, note)

    def fail(self, problem: str, operations: int = 1) -> None:
        self.failed += operations
        self.problems.append(problem)

    def add_median(
        self, name: str, unit: str, samples: Sequence[float], what: str, raw: Sequence[float] = ()
    ) -> None:
        """The median of *samples* over the whole run.

        *samples* are timings already scaled by the host-speed gauge
        (:mod:`perfbench.gauge`); the note also gives the median of the
        *raw* timings, as the host ran them.
        """
        note = f"median of {len(samples)} {what}"
        if raw:
            note += f"; unscaled {median(raw):.4g}"
        self.add(name, median(samples), unit, len(samples), note)

    def add_tail(
        self, name: str, latencies_s: Sequence[float], what: str, raw_s: Sequence[float] = ()
    ) -> None:
        """A p99 latency over all samples, lowered by the percentile rule.

        The rule: the highest percentile with at least ten samples beyond
        it; with enough samples for p99.9 the figure stays p99.  The note
        names the percentile, and says so when it is not p99; it also
        gives the same percentile of the *raw_s* latencies.
        """
        pct = min(99.0, tail_percentile(len(latencies_s)) or 50.0)
        note = f"p{pct:g} of {what}" + ("" if pct == 99.0 else " (too few samples for p99)")
        if raw_s:
            note += f"; unscaled {1e3 * percentile(raw_s, pct):.4g}"
        self.add(name, 1e3 * percentile(latencies_s, pct), "ms", len(latencies_s), note)


def repro_env() -> dict[str, str]:
    """Environment for child Python processes: ``src`` on the path."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_until_ready(argv: Sequence[str], marker: str, timeout: float = 60.0) -> tuple[float, str]:
    """Seconds from launching *argv* until it prints a line containing *marker*.

    The process is then waited for; it must exit by itself.  Returns the
    seconds and what it printed after the marker line.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        list(argv), cwd=ROOT, env=repro_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if marker in line:
                ready = time.perf_counter() - start
                break
        else:
            raise RuntimeError(f"{argv[:3]} exited before printing {marker!r}")
        rest = proc.stdout.read()
        if proc.wait(timeout=timeout) != 0:
            raise RuntimeError(f"{argv[:3]} exited with {proc.returncode}")
        return ready, rest
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest max-RSS of this process and its waited-for children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def proc_tree_cpu(pid: int) -> float:
    """CPU seconds used so far by *pid*, its live descendants and their reaped children."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            # utime, stime, cutime, cstime are stat fields 14-17.
            total += sum(int(x) for x in fields[11:15])
            pending.extend(child_pids(current))
        except (OSError, ValueError):
            continue
    return total / ticks


def child_pids(pid: int) -> list[int]:
    pids: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return pids
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as fh:
                pids.extend(int(x) for x in fh.read().split())
        except OSError:
            continue
    return pids


# ----------------------------------------------------------------------
# per-layer metrics from spans
# ----------------------------------------------------------------------
#: Per-layer metrics and units, in BENCHMARK.json order.
LAYER_UNITS = {
    "runner.pools_started": "count",
    "runner.dispatch_s": "s",
    "ckernel.builds": "count",
    "ckernel.build_s": "s",
    "simulation.points": "count",
    "simulation.build_network_s": "s",
    "simulation.self_s": "s",
    "engine.run_s": "s",
    "engine.cycles_per_s": "1/s",
    "engine.flits_moved": "count",
    "columnar.init_s": "s",
    "columnar.run_s": "s",
    "columnar.cycles_per_s": "1/s",
    "cache.salt_s": "s",
    "cache.gets": "count",
    "cache.get_s": "s",
    "cache.puts": "count",
    "cache.put_s": "s",
    "spec.key_calls": "count",
    "spec.key_s": "s",
    "serialization.encode_s": "s",
    "serialization.decode_s": "s",
    "memcache.hit_ratio": "ratio",
    "service.mem_hits": "count",
    "service.disk_hits": "count",
    "service.computed": "count",
    "service.dedup": "count",
    "service.pool_submitted": "count",
    "service.http_errors": "count",
    "experiments.check_s": "s",
    "experiments.self_s": "s",
    "fidelity.ref_err_pct": "%",
    "trace.overhead": "ratio",
    "trace.unattributed_pct": "%",
}

#: Span names that stand for a whole workload pass rather than a layer.
ROOT_SPANS = frozenset({"Experiment.run"})


def layer_metrics(
    spans: Sequence[Span], windows: Sequence[tuple[float, float]]
) -> dict[str, float]:
    """Span-derived per-layer metrics over the measured *windows*.

    Only spans that start inside a window count, except the code-salt
    hash, which is reported wherever it ran (it is set-up work).
    """
    selfs = self_times(spans)
    ordered = sorted(windows)
    starts = [lo for lo, __ in ordered]

    def in_window(t: float) -> bool:
        index = bisect.bisect_right(starts, t) - 1
        return index >= 0 and t <= ordered[index][1]

    inside = [s for s in spans if in_window(s.start)]
    by: dict[str, list[Span]] = {}
    for span in inside:
        by.setdefault(span.name, []).append(span)

    def spans_of(name: str) -> list[Span]:
        return by.get(name, [])

    def total(name: str) -> float:
        return sum(s.duration for s in spans_of(name))

    def self_total(name: str) -> float:
        return sum(selfs[(s.pid, s.sid)] for s in spans_of(name))

    sim_intervals = [(s.start, s.end) for s in spans_of("simulate")]
    children: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for span in inside:
        if span.parent is not None:
            children.setdefault((span.pid, span.parent), []).append((span.start, span.end))
    dispatch = sum(
        rp.duration
        - covered(sim_intervals + children.get((rp.pid, rp.sid), []), rp.start, rp.end)
        for rp in spans_of("run_points")
    )
    builds = [s for s in spans_of("ckernel.load") if s.extra.get("build")]
    engine_s = total("Engine.run")
    columnar_s = total("ColumnarEngine.run")
    width = sum(hi - lo for lo, hi in merge(windows))
    layer_intervals = [(s.start, s.end) for s in inside if s.name not in ROOT_SPANS]
    attributed = overlap(layer_intervals, windows)
    return {
        "runner.dispatch_s": dispatch,
        "ckernel.builds": len(builds),
        "ckernel.build_s": sum(s.duration for s in builds),
        "simulation.points": len(spans_of("simulate")),
        "simulation.build_network_s": total("build_network"),
        "simulation.self_s": self_total("simulate"),
        "engine.run_s": engine_s,
        "engine.cycles_per_s": (
            sum(s.extra["cycles"] for s in spans_of("Engine.run")) / engine_s if engine_s else 0.0
        ),
        "engine.flits_moved": sum(
            s.extra["flits"] for s in spans_of("simulate") if s.extra["scheduler"] != "columnar"
        ),
        "columnar.init_s": total("ColumnarEngine.__init__") - total("ckernel.load"),
        "columnar.run_s": columnar_s,
        "columnar.cycles_per_s": (
            sum(s.extra["cycles"] for s in spans_of("ColumnarEngine.run")) / columnar_s
            if columnar_s
            else 0.0
        ),
        "cache.salt_s": sum(s.duration for s in spans if s.name == "code_version_salt"),
        "cache.gets": len(spans_of("ResultCache.get_entry")),
        "cache.get_s": total("ResultCache.get_entry"),
        "cache.puts": len(spans_of("ResultCache.put")),
        "cache.put_s": total("ResultCache.put"),
        "spec.key_calls": len(spans_of("PointSpec.key")),
        "spec.key_s": total("PointSpec.key"),
        "serialization.encode_s": total("canonical_json"),
        "serialization.decode_s": total("result_from_payload"),
        "experiments.check_s": total("Experiment.evaluate"),
        "experiments.self_s": self_total("Experiment.run"),
        "trace.unattributed_pct": 100.0 * (width - attributed) / width if width else 0.0,
    }


def reference_error_pct(result_json: dict[str, Any], reference_json: dict[str, Any]) -> float:
    """Mean |y - y_ref| / y_ref over the (series, x) points both sweeps share, in %."""
    errors: list[float] = []
    for name, ref in reference_json["series"].items():
        ours = result_json["series"].get(name)
        if ours is None:
            continue
        ref_at = dict(zip(ref["x"], ref["y"]))
        for x, y in zip(ours["x"], ours["y"]):
            if x in ref_at and ref_at[x]:
                errors.append(abs(y - ref_at[x]) / ref_at[x])
    return 100.0 * sum(errors) / len(errors) if errors else 0.0
