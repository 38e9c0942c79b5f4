"""Pure helpers of the benchmark: percentiles, span arithmetic, digests.

Nothing here imports :mod:`repro`, so the unit tests in
``perfbench/tests`` run without the simulator on the path.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

#: Percentiles a tail figure may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is only reported when at least this many samples
#: lie beyond it; with fewer, one outlier decides the figure.
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """Highest percentile of :data:`TAIL_PERCENTILES` with >= 10 samples beyond.

    ``None`` when even the median has fewer than ten samples beyond it.
    """
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= MIN_BEYOND - 1e-9:
            return pct
    return None


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (the smallest sample with >= pct% at or below)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
Interval = tuple[float, float]


def merge(intervals: Iterable[Interval]) -> list[Interval]:
    """Sorted, non-overlapping union of closed intervals."""
    merged: list[Interval] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def covered(intervals: Iterable[Interval], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of *intervals*."""
    clipped = ((max(s, lo), min(e, hi)) for s, e in intervals)
    return sum(e - s for s, e in merge(clipped))


def overlap(a: Iterable[Interval], b: Iterable[Interval]) -> float:
    """Length of the intersection of the unions of *a* and *b*.

    One merge and one sweep, so thousands of windows against hundreds
    of thousands of spans stay linear after the sort.
    """
    left, right = merge(a), merge(b)
    total, i, j = 0.0, 0, 0
    while i < len(left) and j < len(right):
        lo = max(left[i][0], right[j][0])
        hi = min(left[i][1], right[j][1])
        if hi > lo:
            total += hi - lo
        if left[i][1] < right[j][1]:
            i += 1
        else:
            j += 1
    return total


@dataclass
class Span:
    """One timed call: ``name`` ran from ``start`` to ``end`` in process ``pid``.

    ``parent`` is the ``sid`` of the enclosing span in the same process
    and thread, or ``None`` for a root.  ``extra`` holds per-call facts
    (cycles simulated, whether a kernel load compiled, ...).
    """

    name: str
    start: float
    end: float
    pid: int
    sid: int
    parent: int | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> str:
        return json.dumps(
            [self.name, self.start, self.end, self.pid, self.sid, self.parent, self.extra],
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "Span":
        name, start, end, pid, sid, parent, extra = json.loads(line)
        return cls(name, start, end, pid, sid, parent, extra)


def self_times(spans: Sequence[Span]) -> dict[tuple[int, int], float]:
    """Each span's duration minus the part of it its children cover.

    Children are matched by ``(pid, parent)``; overlapping children
    (threads of one process) are counted once.
    """
    children: dict[tuple[int, int], list[Interval]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault((span.pid, span.parent), []).append((span.start, span.end))
    return {
        (span.pid, span.sid): span.duration
        - covered(children.get((span.pid, span.sid), ()), span.start, span.end)
        for span in spans
    }


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
def canonical_digest(payload: Any) -> str:
    """SHA-256 of *payload* as canonical JSON (sorted keys, no whitespace)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
