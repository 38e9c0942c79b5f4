"""Kernel throughput: columnar vs compiled vs naive.

Standalone script (not a pytest-benchmark — CI needs its JSON output):
runs the same 2-level ring point at three offered loads under all three
schedulers and reports simulated cycles per wall-clock second plus the
cross-scheduler speedups.  The bit-exact schedulers time one seed each,
with ``flits_moved`` cross-checked between them.  The ``columnar`` cell
times 8 seeds on the struct-of-arrays columnar engine and reports
*aggregate* cycles·replicas/sec; its results are statistically
equivalent rather than byte-identical, so its flit volume is gated
against ``compiled`` within the statistical-equivalence band instead of
exact-match, and its throughput must clear ≥5x solo ``compiled`` at the
mid and saturated loads (the tentpole target this engine exists for).
The three loads bracket the kernel's operating regimes:

* ``low``  — almost every component idle almost every cycle; the
  active sets' best case (the compiled scheduler fast-forwards between
  misses), and the compiled datapath's guard point (its finalize-built
  closures must not cost throughput when nothing is saturated);
* ``mid``  — the knee of the latency curve, a realistic mix;
* ``sat``  — saturation, everything busy every cycle; the compiled
  datapath's design point (flat proposal rows, fused PM updates,
  edge-triggered wakes), and the point where the active sets
  degenerate to "all components".

Repeats are interleaved across schedulers (every repeat times each
scheduler once, back to back) so machine-load noise hits all cells
alike.  Each cell reports best-of (``cycles_per_sec`` — noise only ever
slows a run down, so the max is the cleanest point estimate) *and*
median-of-repeats with the relative repeat spread
(``median_cycles_per_sec`` / ``repeat_spread``), so the history log
carries enough to tell machine drift from a real regression.

Every run records one entry in the report's ``history`` list (carried
forward from the previous report when ``-o`` points at an existing
file): git SHA, UTC date, mode, and per-point cycles/sec for every
scheduler — a throughput log across commits.  Re-running on the same
commit *replaces* that commit's entry for the same mode instead of
appending a duplicate, so the log stays one entry per (sha, mode).
``--bench-compare`` additionally diffs the fresh measurements against
the last history row of the same mode and exits non-zero when any cell
regressed by more than :data:`REGRESSION_TOLERANCE`.

Usage::

    PYTHONPATH=src python -m benchmarks.bench_kernel            # full
    PYTHONPATH=src python -m benchmarks.bench_kernel --smoke    # CI
    PYTHONPATH=src python -m benchmarks.bench_kernel -o BENCH_kernel.json
    PYTHONPATH=src python -m benchmarks.bench_kernel -o BENCH_kernel.json --bench-compare
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone

from repro.core.config import RingSystemConfig, SimulationParams, WorkloadConfig

SYSTEM = RingSystemConfig(topology="3:8", cache_line_bytes=32)

SCHEDULERS = ("compiled", "naive")

#: Replica width for the ``columnar`` cell.
BATCH_REPLICAS = 8

#: The tentpole target: columnar aggregate throughput must clear this
#: multiple of solo ``compiled`` at the mid and saturated loads.
COLUMNAR_SPEEDUP_FLOOR = 5.0

#: Loads where the speedup floor is enforced (low load is reported but
#: not gated: the quiet-jump fast-forward makes it noise-dominated).
COLUMNAR_GATED_LOADS = ("mid", "sat")

#: ``--bench-compare``: per-cell slowdown beyond this fraction of the
#: previous same-mode history row fails the run.
REGRESSION_TOLERANCE = 0.25

#: (label, miss rate C) — see module docstring for why these three.
LOAD_POINTS = (
    ("low", 0.002),
    ("mid", 0.02),
    ("sat", 0.08),
)

FULL_PARAMS = SimulationParams(batch_cycles=3000, batches=6, seed=1)
SMOKE_PARAMS = SimulationParams(batch_cycles=600, batches=3, seed=1)


def _timing_stats(samples: "list[float]") -> dict:
    """Best-of, median-of and relative spread of one cell's repeats."""
    ordered = sorted(samples)
    n = len(ordered)
    if n % 2:
        median = ordered[n // 2]
    else:
        median = 0.5 * (ordered[n // 2 - 1] + ordered[n // 2])
    spread = (ordered[-1] - ordered[0]) / median if median else 0.0
    return {
        "cycles_per_sec": round(ordered[-1], 1),
        "median_cycles_per_sec": round(median, 1),
        "repeat_spread": round(spread, 4),
    }


def measure(params: SimulationParams, repeats: int) -> dict:
    """Run every (load, scheduler) cell; return the structured report."""
    from repro.audit.stat_equiv import FLIT_RATIO_BAND
    from repro.core.simulation import simulate, simulate_batch

    report: dict = {
        "system": str(SYSTEM.topology),
        "batch_cycles": params.batch_cycles,
        "batches": params.batches,
        "batch_replicas": BATCH_REPLICAS,
        "points": {},
    }
    for label, miss_rate in LOAD_POINTS:
        workload = WorkloadConfig(miss_rate=miss_rate, outstanding=4)
        cell: dict = {"miss_rate": miss_rate}
        samples: dict[str, list[float]] = {
            s: [] for s in SCHEDULERS + ("columnar",)
        }
        flits: dict[str, float] = {}

        def check_flits(key: str, value: float) -> None:
            if key not in flits:
                flits[key] = value
            elif flits[key] != value:
                raise AssertionError(f"{label}/{key}: non-deterministic flits_moved")

        for __ in range(repeats):
            for scheduler in SCHEDULERS:
                run_params = replace(params, scheduler=scheduler)
                start = time.perf_counter()
                result = simulate(SYSTEM, workload, run_params)
                elapsed = time.perf_counter() - start
                samples[scheduler].append(result.cycles / elapsed)
                check_flits(scheduler, result.flits_moved)
            # The columnar cell runs BATCH_REPLICAS seeds on the columnar
            # engine; the headline number is *aggregate* simulated
            # cycles·replicas per second (its whole point is that the
            # replicas share vectorized state).  Results are only
            # statistically equivalent, so the mean flit volume is
            # gated within the equivalence band, not exact-matched.
            start = time.perf_counter()
            col_results = simulate_batch(
                SYSTEM,
                workload,
                replace(params, scheduler="columnar", replicas=BATCH_REPLICAS),
            )
            elapsed = time.perf_counter() - start
            samples["columnar"].append(
                BATCH_REPLICAS * col_results[0].cycles / elapsed
            )
            check_flits(
                "columnar",
                sum(r.flits_moved for r in col_results) / len(col_results),
            )
        bit_exact = {k: v for k, v in flits.items() if k != "columnar"}
        if len(set(bit_exact.values())) != 1:
            raise AssertionError(
                f"{label}: schedulers disagree on flits_moved: {bit_exact}"
            )
        flit_ratio = flits["columnar"] / flits["compiled"]
        lo, hi = FLIT_RATIO_BAND
        if not lo <= flit_ratio <= hi:
            raise AssertionError(
                f"{label}: columnar flit volume ratio {flit_ratio:.4f} "
                f"outside the statistical-equivalence band [{lo}, {hi}]"
            )
        for scheduler in SCHEDULERS:
            cell[scheduler] = {
                **_timing_stats(samples[scheduler]),
                "flits_moved": int(flits[scheduler]),
            }
        cell["columnar"] = {
            **_timing_stats(samples["columnar"]),
            "replicas": BATCH_REPLICAS,
            "aggregate": True,
            "flits_moved_mean": round(flits["columnar"], 1),
            "flit_ratio_vs_compiled": round(flit_ratio, 4),
        }
        best = {s: max(v) for s, v in samples.items()}
        cell["speedup_compiled_vs_naive"] = round(
            best["compiled"] / best["naive"], 2
        )
        cell["speedup_columnar_vs_compiled"] = round(
            best["columnar"] / best["compiled"], 2
        )
        if (
            label in COLUMNAR_GATED_LOADS
            and cell["speedup_columnar_vs_compiled"] < COLUMNAR_SPEEDUP_FLOOR
        ):
            raise AssertionError(
                f"{label}: columnar aggregate speedup "
                f"{cell['speedup_columnar_vs_compiled']}x below the "
                f"{COLUMNAR_SPEEDUP_FLOOR}x floor vs solo compiled"
            )
        report["points"][label] = cell
    return report


def _host_fingerprint() -> str:
    """Short stable id of the measuring host.

    Wall-clock benchmark numbers are only comparable on the same
    hardware; rows record this fingerprint so ``--bench-compare`` can
    skip cross-host diffs instead of reporting phantom regressions.
    """
    raw = "|".join(
        (
            platform.node(),
            platform.machine(),
            platform.processor() or "",
            str(os.cpu_count() or 0),
        )
    )
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:12]


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def _history_entry(report: dict) -> dict:
    return {
        "sha": _git_sha(),
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%d"),
        "host": _host_fingerprint(),
        "mode": report["mode"],
        "points": {
            label: {
                scheduler: cell[scheduler]["cycles_per_sec"]
                for scheduler in SCHEDULERS + ("columnar",)
            }
            for label, cell in report["points"].items()
        },
        "spread": {
            label: {
                scheduler: cell[scheduler]["repeat_spread"]
                for scheduler in SCHEDULERS + ("columnar",)
            }
            for label, cell in report["points"].items()
        },
    }


def _prior_history(path: str) -> list:
    """History entries of an existing report at *path*, else empty."""
    try:
        with open(path) as handle:
            previous = json.load(handle)
    except (OSError, ValueError):
        return []
    history = previous.get("history", [])
    return history if isinstance(history, list) else []


def _merge_history(history: list, entry: dict) -> list:
    """Fold *entry* into *history*: replace the same (sha, mode) entry.

    Re-running the benchmark on the same commit used to append a
    duplicate history line per run; the later measurement supersedes
    the earlier one (same code, fresher timing) and keeps its position
    in the log, so the history stays one entry per (sha, mode).
    """
    key = (entry.get("sha"), entry.get("mode"))
    for index, existing in enumerate(history):
        if (existing.get("sha"), existing.get("mode")) == key:
            history[index] = entry
            return history
    history.append(entry)
    return history


def compare_to_history(entry: dict, history: list) -> "tuple[list[str], str | None]":
    """Per-cell regressions of *entry* against the last same-mode row.

    Compares each (load, scheduler) cycles/sec of the fresh *entry*
    against the most recent history row of the same mode (the row the
    current run will replace or follow).  Returns ``(regressions,
    skip_notice)``: one description per cell that slowed down by more
    than :data:`REGRESSION_TOLERANCE`, or a notice (and no
    regressions) when the prior row was measured on different hardware
    — cross-host wall-clock timing is not comparable, so the diff is
    skipped rather than reported as a phantom regression.  Both empty
    when there is no prior row at all.
    """
    prior = None
    for row in reversed(history):
        if row.get("mode") == entry.get("mode"):
            prior = row
            break
    if prior is None:
        return [], None
    prior_host = prior.get("host")
    entry_host = entry.get("host")
    if prior_host != entry_host:
        return [], (
            f"prior row {prior.get('sha', '?')} was measured on host "
            f"{prior_host or 'unknown'}, this run on {entry_host or 'unknown'}; "
            "cross-host timing is not comparable"
        )
    regressions = []
    for label, cells in entry.get("points", {}).items():
        old_cells = prior.get("points", {}).get(label, {})
        for scheduler, new_value in cells.items():
            old_value = old_cells.get(scheduler)
            if not old_value or not new_value:
                continue
            drop = (old_value - new_value) / old_value
            if drop > REGRESSION_TOLERANCE:
                regressions.append(
                    f"{label}/{scheduler}: {old_value:.0f} -> {new_value:.0f} "
                    f"cyc/s ({drop:.0%} slower than {prior.get('sha', '?')}, "
                    f"tolerance {REGRESSION_TOLERANCE:.0%})"
                )
    return regressions, None


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short CI runs (fewer cycles, single repeat)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timing repeats per cell; best-of is reported (default 5, smoke 1)",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the report as JSON to this path (appends to its history)",
    )
    parser.add_argument(
        "--bench-compare",
        action="store_true",
        help="diff this run against the last same-mode history row in the "
        "output file and exit non-zero on a >25%% per-cell regression",
    )
    args = parser.parse_args(argv)
    if args.bench_compare and not args.output:
        parser.error("--bench-compare needs -o/--output (the history lives there)")

    params = SMOKE_PARAMS if args.smoke else FULL_PARAMS
    repeats = args.repeats if args.repeats is not None else (1 if args.smoke else 5)
    report = measure(params, repeats)
    report["mode"] = "smoke" if args.smoke else "full"

    width = max(len(label) for label, __ in LOAD_POINTS)
    print(f"kernel throughput, ring {report['system']} "
          f"({params.batch_cycles}x{params.batches} cycles, best of {repeats}):")
    for label, cell in report["points"].items():
        print(
            f"  {label:<{width}}  C={cell['miss_rate']:<6}"
            f"  columnar {cell['columnar']['cycles_per_sec']:>9.0f} cyc/s agg"
            f"  compiled {cell['compiled']['cycles_per_sec']:>9.0f} cyc/s"
            f"  naive {cell['naive']['cycles_per_sec']:>9.0f} cyc/s"
            f"  col/c {cell['speedup_columnar_vs_compiled']:.2f}x"
            f"  c/n {cell['speedup_compiled_vs_naive']:.2f}x"
        )

    regressions: "list[str]" = []
    skip_notice: "str | None" = None
    if args.output:
        prior = _prior_history(args.output)
        entry = _history_entry(report)
        if args.bench_compare:
            regressions, skip_notice = compare_to_history(entry, prior)
        history = _merge_history(prior, entry)
        report["history"] = history
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output} ({len(history)} history entr"
              f"{'y' if len(history) == 1 else 'ies'})")
    if args.bench_compare:
        if regressions:
            print("bench-compare: REGRESSED")
            for line in regressions:
                print(f"  {line}")
            return 1
        if skip_notice is not None:
            print(f"bench-compare: SKIPPED — {skip_notice}")
        else:
            print("bench-compare: no per-cell regression beyond "
                  f"{REGRESSION_TOLERANCE:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
