"""Benchmark entry point: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ring-sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same workload with span wrappers around the simulator's layers and
prints the per-layer metrics instead.  A table with every metric, its
unit, sample count and note comes first; the last line of standard
output is the JSON result.  Scratch files live under
``.perfbench_work/`` and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

WORKLOADS = ("ring-sweep", "mesh-columnar", "service-mix")

#: End-to-end metrics and units, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "warm_sweep_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "hit_p50_ms": "ms",
    "hit_p99_ms": "ms",
    "miss_p50_ms": "ms",
    "req_per_s": "req/s",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Import repro from this checkout's sources, and perfbench as a package.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    # The benchmark writes only inside its checkout, so temporary files
    # of this process and its children (the C kernel's build directory,
    # cc's own files) go to the scratch directory too.
    os.environ["TMPDIR"] = str(work / "tmp")

    from benchmarks.bench_kernel import _git_sha, _host_fingerprint
    from perfbench import service_mix, sweeps
    from perfbench.common import LAYER_UNITS
    from perfbench.gauge import HostGauge

    runner = sweeps.run if args.workload in sweeps.SWEEPS else service_mix.run
    try:
        with HostGauge(work / "gauge.txt") as gauge:
            gauge.wait_readings()
            report = runner(args.workload, args.seed, args.seconds, bool(args.trace), work, gauge)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} host={_host_fingerprint()} sha={_git_sha()}"
    )
    for line in report.lines:
        print(f"  {line}")
    print(f"  {'metric':<28} {'value':>14} {'unit':<6} {'n':>6}  note")
    for name, metric in report.metrics.items():
        print(f"  {name:<28} {metric.value:>14.4f} {metric.unit:<6} {metric.samples:>6}  {metric.note}")
    if args.trace:
        for name, unit in LAYER_UNITS.items():
            print(f"  {name:<28} {report.layers.get(name, float('nan')):>14.4f} {unit:<6}")
    for problem in report.problems:
        print(f"  FAILED: {problem}")
    print(f"  operations attempted={report.attempted} failed={report.failed}")

    units = LAYER_UNITS if args.trace else END_TO_END
    values = report.layers if args.trace else {k: m.value for k, m in report.metrics.items()}
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
