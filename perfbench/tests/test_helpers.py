"""Unit tests of the benchmark's own helpers.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import hashlib
import json
import math
import pathlib
import time

import pytest

from perfbench.common import LAYER_UNITS, Report, layer_metrics, reference_error_pct
from perfbench.gauge import REFERENCE_S, HostGauge, _window_median, inline_factor, points_factor
from perfbench.run import END_TO_END
from perfbench.stats import (
    Span,
    canonical_digest,
    covered,
    overlap,
    percentile,
    self_times,
    tail_percentile,
)

ROOT = pathlib.Path(__file__).resolve().parents[2]


# -- the percentile rule ------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),  # not even ten samples beyond the median
        (20, 50.0),
        (40, 75.0),
        (100, 90.0),
        (200, 95.0),
        (999, 95.0),  # 9.99 beyond p99: one short
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 99.9) == 100
    assert percentile([7.0], 99) == 7.0


def test_median_helper_reports_samples_and_unscaled_median():
    report = Report()
    report.add_median("lat_ms", "ms", [1.0, 3.0, 2.0], "passes", raw=[4.0, 6.0, 5.0])
    metric = report.metrics["lat_ms"]
    assert metric.value == pytest.approx(2.0)
    assert metric.samples == 3
    assert metric.note == "median of 3 passes; unscaled 5"


def test_tail_names_its_percentile():
    report = Report()
    report.add_tail("hit_p99_ms", [i / 1e3 for i in range(1, 1001)], "hits")
    assert report.metrics["hit_p99_ms"].value == pytest.approx(990.0)
    assert report.metrics["hit_p99_ms"].note == "p99 of hits"
    report.add_tail("hit_p99_ms", [i / 1e3 for i in range(1, 101)], "hits")
    assert report.metrics["hit_p99_ms"].value == pytest.approx(90.0)
    assert "too few samples" in report.metrics["hit_p99_ms"].note
    # Enough samples for p99.9 still report p99.
    report.add_tail("hit_p99_ms", [i / 1e3 for i in range(1, 20001)], "hits")
    assert report.metrics["hit_p99_ms"].value == pytest.approx(19800.0)
    assert report.metrics["hit_p99_ms"].note == "p99 of hits"



# -- the host-speed gauge -----------------------------------------------
def test_inline_factor_scales_to_reference_speed():
    assert inline_factor(REFERENCE_S, REFERENCE_S) == pytest.approx(1.0)
    # A vCPU running at half speed: the work counts half its time.
    assert inline_factor(2 * REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(0.5)
    assert inline_factor(REFERENCE_S, 3 * REFERENCE_S) == pytest.approx(0.5)


def test_window_median_widens_to_the_nearest_readings():
    times = [0.0, 1.0, 2.0, 3.0, 10.0]
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    # Three readings inside: no widening.
    assert _window_median(times, values, 0.5, 3.5) == 3.0
    # None inside [2.2, 2.4]: 2.0 is nearest, then 3.0, then 1.0.
    assert _window_median(times, values, 2.2, 2.4) == 3.0
    # Past the last reading, widening goes back in time only.
    assert _window_median(times, values, 20.0, 21.0) == 4.0
    # Fewer readings than MIN_READINGS in all: all of them.
    assert _window_median([5.0], [7.0], 0.0, 1.0) == 7.0


def test_gauge_factor_averages_the_cpus(tmp_path):
    path = tmp_path / "gauge.txt"
    rows = [(t, 0, REFERENCE_S) for t in (1.0, 2.0, 3.0)]
    rows += [(t, 1, 3 * REFERENCE_S) for t in (1.5, 2.5, 3.5)]
    rows.append((9.0, 1, REFERENCE_S))
    path.write_text("".join(f"{t} {cpu} {v}\n" for t, cpu, v in rows) + "9.5 0")
    gauge = HostGauge.__new__(HostGauge)
    gauge.path, gauge._size, gauge._by_cpu = path, -1, {}
    # Mean reading 2 x REFERENCE_S: the CPUs ran at half speed on average.
    assert gauge.factor(1.0, 3.5) == pytest.approx(0.5)


def test_points_factor_weights_points_by_time(tmp_path):
    (tmp_path / "points-1.txt").write_text("0.0 1.0 0.5\n2.0 5.0 1.0\n")
    (tmp_path / "points-2.txt").write_text("1.0 2.0 0.9\n9.0 12.0 0.1\n")
    # Points inside [0, 6]: 1 s at 0.5, 3 s at 1.0, 1 s at 0.9.
    assert points_factor(tmp_path, 0.0, 6.0) == pytest.approx(4.4 / 5.0)
    # A point only partly inside does not count.
    assert points_factor(tmp_path, 0.5, 6.0) == pytest.approx(3.9 / 4.0)
    assert points_factor(tmp_path, 6.0, 8.0) is None


def test_gauge_child_reads_every_cpu_and_stops(tmp_path):
    with HostGauge(tmp_path / "gauge.txt") as gauge:
        gauge.wait_readings()
        assert 0.0 < gauge.factor(0.0, time.monotonic())
    assert gauge.proc.returncode is not None


# -- self time from overlapping and nested spans ------------------------
def span(name, start, end, sid, parent=None, pid=1, **extra):
    return Span(name, start, end, pid, sid, parent, extra)


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("root", 0.0, 10.0, 0),
        span("a", 1.0, 4.0, 1, parent=0),
        span("b", 3.0, 6.0, 2, parent=0),  # overlaps a on [3, 4]
    ]
    selfs = self_times(spans)
    assert selfs[(1, 0)] == pytest.approx(10.0 - 5.0)
    assert selfs[(1, 1)] == pytest.approx(3.0)


def test_self_time_subtracts_only_direct_children():
    spans = [
        span("root", 0.0, 10.0, 0),
        span("child", 1.0, 5.0, 1, parent=0),
        span("grandchild", 2.0, 4.0, 2, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs[(1, 0)] == pytest.approx(6.0)
    assert selfs[(1, 1)] == pytest.approx(2.0)
    assert selfs[(1, 2)] == pytest.approx(2.0)


def test_self_time_ignores_same_sid_in_another_process():
    spans = [span("root", 0.0, 10.0, 0, pid=1), span("worker", 1.0, 9.0, 1, parent=0, pid=2)]
    assert self_times(spans)[(1, 0)] == pytest.approx(10.0)


def test_covered_clips_to_the_window():
    assert covered([(-5.0, 2.0), (1.0, 3.0), (8.0, 20.0)], 0.0, 10.0) == pytest.approx(5.0)
    assert covered([], 0.0, 1.0) == 0.0


def test_overlap_matches_covered_summed_over_windows():
    spans = [(-5.0, 2.0), (1.0, 3.0), (8.0, 20.0), (21.0, 22.0)]
    windows = [(0.0, 10.0), (15.0, 21.5), (30.0, 31.0)]
    expected = sum(covered(spans, lo, hi) for lo, hi in windows)
    assert overlap(spans, windows) == pytest.approx(expected) == pytest.approx(10.5)
    assert overlap(spans, []) == 0.0


def test_span_json_round_trip():
    original = span("simulate", 1.25, 2.5, 7, parent=3, pid=42, cycles=10000)
    assert Span.from_json(original.to_json()) == original


def test_layer_metrics_dispatch_and_unattributed_share():
    spans = [
        span("Experiment.run", 0.0, 10.0, 0),
        span("run_points", 1.0, 9.0, 1, parent=0),
        span("PointSpec.key", 1.0, 2.0, 2, parent=1),
        # a pool worker's point, overlapping the parent's key span
        span("simulate", 1.5, 7.0, 0, pid=2, scheduler="compiled", cycles=100, flits=5),
        span("Engine.run", 2.0, 6.0, 1, parent=0, pid=2, cycles=100),
    ]
    layers = layer_metrics(spans, [(0.0, 10.0)])
    # run_points is 8 s; key [1, 2] and simulate [1.5, 7] cover [1, 7].
    assert layers["runner.dispatch_s"] == pytest.approx(2.0)
    assert layers["simulation.self_s"] == pytest.approx(1.5)
    assert layers["engine.cycles_per_s"] == pytest.approx(25.0)
    assert layers["engine.flits_moved"] == 5
    assert layers["experiments.self_s"] == pytest.approx(2.0)
    # Only the root covers [0, 1] and [9, 10].
    assert layers["trace.unattributed_pct"] == pytest.approx(20.0)


def test_layer_metrics_skip_spans_outside_the_windows():
    spans = [span("PointSpec.key", 0.0, 1.0, 0), span("PointSpec.key", 5.0, 6.0, 1)]
    assert layer_metrics(spans, [(4.0, 7.0)])["spec.key_calls"] == 1


# -- digest stability ---------------------------------------------------
def test_digest_ignores_key_order_and_whitespace():
    a = {"series": {"16B": {"x": [2, 4], "y": [13.5, 15.25]}}, "title": "t"}
    b = json.loads(json.dumps({"title": "t", "series": {"16B": {"y": [13.5, 15.25], "x": [2, 4]}}}, indent=2))
    assert canonical_digest(a) == canonical_digest(b)


def test_digest_is_sha256_of_canonical_text():
    expected = hashlib.sha256(b'{"a":[1.5,null],"b":1}').hexdigest()
    assert canonical_digest({"b": 1, "a": [1.5, None]}) == expected


def test_digest_sees_the_last_digit():
    assert canonical_digest({"y": [0.1 + 0.2]}) != canonical_digest({"y": [0.3]})
    assert canonical_digest({"y": [math.nan]}) == canonical_digest({"y": [math.nan]})


def test_reference_error_uses_shared_points_only():
    ours = {"series": {"s": {"x": [1, 2, 3], "y": [11.0, 18.0, 5.0]}, "extra": {"x": [1], "y": [1.0]}}}
    ref = {"series": {"s": {"x": [1, 2], "y": [10.0, 20.0]}}}
    assert reference_error_pct(ours, ref) == pytest.approx(10.0)


# -- the metric names match BENCHMARK.json ------------------------------
def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
