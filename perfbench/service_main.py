"""Run the sweep service with the benchmark's wrappers installed.

Usage::

    python3 perfbench/service_main.py trace SPANS_DIR [repro.service arguments...]
    python3 perfbench/service_main.py points POINTS_DIR [repro.service arguments...]

``trace`` installs the span wrappers: the service's own spans are
written to SPANS_DIR when it shuts down, the workers' spans as each
point finishes.  ``points`` installs the host-speed readings around
every simulated point (:func:`perfbench.gauge.read_around_points`).
Either way the wrappers go in before the service builds its pools, so
forked pool workers inherit them.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from repro.service.__main__ import main  # noqa: E402

from perfbench import gauge, tracer  # noqa: E402


def wrapped_main(argv: list[str]) -> int:
    mode, out_dir, args = argv[0], argv[1], argv[2:]
    if mode == "points":
        gauge.read_around_points(out_dir)
        return main(args)
    spans = tracer.Tracer(out_dir)
    tracer.install(spans)
    try:
        return main(args)
    finally:
        spans.flush()


if __name__ == "__main__":
    sys.exit(wrapped_main(sys.argv[1:]))
