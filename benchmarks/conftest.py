"""Shared scale for the benchmark suite.

``BENCH`` is small enough that a benchmark finishes in seconds, large
enough that every ring code path (hierarchy levels, buffer depths,
locality) is really exercised.

Run:  pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

from repro.core.config import SimulationParams
from repro.experiments.base import Scale

BENCH = Scale(
    name="quick",  # experiments key cell lists on the name
    sim=SimulationParams(batch_cycles=400, batches=3, seed=23),
    max_nodes=40,
    t_values=(4,),
    cache_lines=(32,),
    mesh_sides=(2, 3, 4, 5),
    locality_values=(0.2,),
    run_checks=False,
)
