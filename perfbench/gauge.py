"""Host-speed gauge: scales timings to a vCPU running at reference speed.

The reference host is a 2-vCPU virtual machine whose vCPUs change
speed by up to 2x for seconds to minutes at a time, as other tenants
load the physical cores.  CPU time slows as much as wall time, and a
slow period can cover a whole run, so no statistic over one run's
samples removes it.  The gauge measures the speed instead: a fixed
pure-Python loop (:func:`spin`, no :mod:`repro` code), timed in thread
CPU time.  A timing is reported scaled by ``REFERENCE_S / reading``,
the reading taken around it: the time the same work takes on a vCPU
that runs the loop in ``REFERENCE_S``.  Work the program does more or
less of moves the scaled figure exactly as much as the raw one.

Readings come two ways:

* :func:`reading` in the thread that does the work, right before and
  after it: the same vCPU, so it tracks that work closely;
* :func:`read_around_points`, the same inside pool workers: a
  reading before and after every point a worker simulates;
* :class:`HostGauge`, a child process that reads the gauge on each CPU
  in turn (pinned to it) every :data:`INTERVAL` seconds, for work in
  processes the benchmark cannot reach: ``cc``, the service.
"""

from __future__ import annotations

import bisect
import functools
import os
import pathlib
import subprocess
import sys
import time
from typing import Any, Callable, Sequence

from .stats import median

#: Iterations of the gauge loop, and its time on a vCPU at reference speed.
SPIN = 5000
REFERENCE_S = 0.0005
#: Seconds between two background readings (each about 0.5 ms of CPU).
INTERVAL = 0.1
#: Fewest background readings per CPU behind a factor.
MIN_READINGS = 3


def spin(n: int = SPIN) -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(n):
        table[i & 255] = i
        total += table.get((i * 7) & 255, 0)
    return total


def reading() -> float:
    """Thread CPU seconds of one gauge loop in the calling thread."""
    start = time.thread_time()
    spin()
    return time.thread_time() - start


def inline_factor(before: float, after: float) -> float:
    """Scale factor of work timed between two inline readings."""
    return 2.0 * REFERENCE_S / (before + after)


def read_around_points(out_dir: "pathlib.Path | str") -> None:
    """Wrap ``repro.core.simulation.simulate`` with inline readings.

    Each call appends ``start end factor`` (monotonic times, the
    call's :func:`inline_factor`) to ``<out_dir>/points-<pid>.txt``.
    Call it before any pool forks, so that the workers inherit it; it
    adds two readings, about 1 ms, to every point.
    """
    from repro.core import simulation

    from .tracer import patch_everywhere

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    original: Callable[..., Any] = simulation.simulate

    @functools.wraps(original)
    def simulate(*args: Any, **kwargs: Any) -> Any:
        before = reading()
        start = time.monotonic()
        try:
            return original(*args, **kwargs)
        finally:
            end = time.monotonic()
            factor = inline_factor(before, reading())
            with open(out / f"points-{os.getpid()}.txt", "a", encoding="ascii") as fh:
                fh.write(f"{start:.6f} {end:.6f} {factor:.9f}\n")

    patch_everywhere(original, simulate)


def points_factor(out_dir: "pathlib.Path | str", start: float, end: float) -> "float | None":
    """Time-weighted mean factor of the points simulated inside [start, end].

    ``None`` when no point finished in the interval.
    """
    weighted = total = 0.0
    for path in pathlib.Path(out_dir).glob("points-*.txt"):
        for line in path.read_text(encoding="ascii").splitlines():
            lo, hi, factor = map(float, line.split())
            if start <= lo and hi <= end:
                weighted += (hi - lo) * factor
                total += hi - lo
    return weighted / total if total else None


_CHILD = """
import itertools, os, sys, time
sys.path[0:0] = [sys.argv[1]]
from perfbench.gauge import INTERVAL, reading
cpus = sorted(os.sched_getaffinity(0))
with open(sys.argv[2], "a", encoding="ascii") as out:
    for turn in itertools.count():
        cpu = cpus[turn % len(cpus)]
        os.sched_setaffinity(0, {cpu})
        reading()  # after the move: warm the loop on this CPU
        value = reading()
        out.write(f"{time.monotonic():.6f} {cpu} {value:.9f}\\n")
        out.flush()
        time.sleep(INTERVAL)
"""


class HostGauge:
    """Background readings of every CPU, written by a child process to *path*.

    Use as a context manager; the child is stopped and waited for on exit.
    """

    def __init__(self, path: "pathlib.Path | str") -> None:
        self.path = pathlib.Path(path)
        self.path.write_text("")
        root = str(pathlib.Path(__file__).resolve().parent.parent)
        self.proc = subprocess.Popen([sys.executable, "-c", _CHILD, root, str(self.path)])
        self._size = -1
        self._by_cpu: dict[int, tuple[list[float], list[float]]] = {}

    def __enter__(self) -> "HostGauge":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()

    def wait_readings(self, timeout: float = 30.0) -> None:
        """Block until every CPU has a reading (the child is running)."""
        deadline = time.monotonic() + timeout
        while len(self._load()) < len(os.sched_getaffinity(0)):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("the host gauge gave no readings")
            time.sleep(0.02)

    def _load(self) -> dict[int, tuple[list[float], list[float]]]:
        size = os.path.getsize(self.path)
        if size != self._size:
            by: dict[int, tuple[list[float], list[float]]] = {}
            for line in self.path.read_text(encoding="ascii").splitlines():
                parts = line.split()
                if len(parts) != 3:
                    continue  # a line still being written
                times, values = by.setdefault(int(parts[1]), ([], []))
                times.append(float(parts[0]))
                values.append(float(parts[2]))
            self._by_cpu, self._size = by, size
        return self._by_cpu

    def factor(self, start: float, end: float) -> float:
        """Scale factor of work done between monotonic times *start* and *end*.

        Per CPU, the median of the readings inside the interval, widened
        on both sides until it holds :data:`MIN_READINGS`; the factor uses
        the mean of the CPUs' medians.
        """
        speeds = [_window_median(t, v, start, end) for t, v in self._load().values()]
        if not speeds:
            raise RuntimeError("the host gauge gave no readings")
        return REFERENCE_S * len(speeds) / sum(speeds)


def _window_median(times: Sequence[float], values: Sequence[float], start: float, end: float) -> float:
    lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
    while hi - lo < min(MIN_READINGS, len(values)):
        # Widen toward whichever neighbour is closer in time.
        left = start - times[lo - 1] if lo > 0 else float("inf")
        right = times[hi] - end if hi < len(times) else float("inf")
        if left <= right:
            lo -= 1
        else:
            hi += 1
    return median(values[lo:hi])
