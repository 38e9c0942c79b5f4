"""Multi-seed batches: per-seed identity and runner/cache integration.

``simulate_batch`` and ``run_replica_batch`` run one point under N
seeds.  On the bit-exact schedulers every replica must be byte-identical
to the same seed run alone, so this module covers:

* seed decorrelation — every replica of a batch equals the same seed
  run individually;
* runner/cache integration — ``run_replica_batch`` results are
  interchangeable cache currency with solo ``run_point`` entries, and
  pooled runs match serial ones.
"""

import math
from dataclasses import replace

import pytest

from repro.core.config import (
    MeshSystemConfig,
    RingSystemConfig,
    SimulationParams,
    WorkloadConfig,
)
from repro.core.errors import ConfigurationError
from repro.core.simulation import simulate, simulate_batch
from repro.runtime.serialization import canonical_json, result_payload

PARAMS = SimulationParams(batch_cycles=300, batches=3, seed=21)


def payload(result):
    return canonical_json(result_payload(result))


@pytest.mark.parametrize(
    "system",
    [
        pytest.param(
            RingSystemConfig(topology="2:4", cache_line_bytes=32), id="ring-2level"
        ),
        pytest.param(
            RingSystemConfig(
                topology="2:2:4", cache_line_bytes=32, global_ring_speed=2
            ),
            id="ring-3level-fast-global",
        ),
        pytest.param(
            MeshSystemConfig(side=3, cache_line_bytes=32, buffer_flits=1),
            id="mesh-buf1",
        ),
    ],
)
def test_replicas_equal_individual_seeds(system):
    """Seed decorrelation: batch results == the same seeds run solo."""
    workload = WorkloadConfig(miss_rate=0.05, outstanding=4)
    batch = simulate_batch(system, workload, replace(PARAMS, replicas=3))
    for result, seed in zip(batch, (21, 22, 23)):
        solo = simulate(system, workload, replace(PARAMS, seed=seed))
        assert payload(result) == payload(solo), f"replica seed {seed} diverged"
        assert result.params.seed == seed
        assert result.latency_range == solo.latency_range


def test_explicit_seed_list_orders_results():
    system = RingSystemConfig(topology="2:4", cache_line_bytes=32)
    workload = WorkloadConfig(miss_rate=0.05, outstanding=4)
    seeds = (40, 2, 17)
    batch = simulate_batch(system, workload, PARAMS, seeds=seeds)
    assert [result.params.seed for result in batch] == list(seeds)
    for result, seed in zip(batch, seeds):
        assert payload(result) == payload(
            simulate(system, workload, replace(PARAMS, seed=seed))
        )


def test_replica_flits_partition_the_total():
    system = RingSystemConfig(topology="2:4", cache_line_bytes=32)
    workload = WorkloadConfig(miss_rate=0.1, outstanding=4)
    batch = simulate_batch(system, workload, replace(PARAMS, replicas=4))
    solo_total = sum(
        simulate(system, workload, replace(PARAMS, seed=s)).flits_moved
        for s in (21, 22, 23, 24)
    )
    assert sum(result.flits_moved for result in batch) == solo_total
    assert solo_total > 0


def test_empty_seed_list_rejected():
    system = RingSystemConfig(topology="8", cache_line_bytes=32)
    with pytest.raises(ConfigurationError):
        simulate_batch(system, None, PARAMS, seeds=())


def test_replicas_validated():
    with pytest.raises(ConfigurationError):
        SimulationParams(replicas=0).validate()
    assert SimulationParams(replicas=8).validate().replicas == 8


# ----------------------------------------------------------------------
# runner / cache integration
# ----------------------------------------------------------------------
def test_run_replica_batch_interchangeable_with_solo_cache(tmp_path):
    from repro.runtime.cache import ResultCache
    from repro.runtime.runner import run_point, run_replica_batch
    from repro.runtime.spec import PointSpec

    system = RingSystemConfig(topology="2:4", cache_line_bytes=32)
    workload = WorkloadConfig(miss_rate=0.05, outstanding=4)
    spec = PointSpec(system, workload, replace(PARAMS, replicas=3))
    cache = ResultCache(str(tmp_path))

    # Pre-populate the middle seed from a solo compiled run.
    solo_spec = PointSpec(system, workload, replace(PARAMS, seed=22, replicas=1))
    solo = run_point(solo_spec, cache=cache)

    results = run_replica_batch(spec, cache=cache)
    assert [r.params.seed for r in results] == [21, 22, 23]
    assert payload(results[1]) == payload(solo)

    # Every replica is now a solo-readable cache entry.
    for seed, result in zip((21, 22, 23), results):
        entry = cache.get(
            PointSpec(system, workload, replace(PARAMS, seed=seed, replicas=1))
        )
        assert entry is not None
        assert payload(entry) == payload(result)

    # Second call is served fully from cache.
    hits = []
    again = run_replica_batch(spec, cache=cache, progress=lambda p: hits.append(p.cache_hits))
    assert [payload(r) for r in again] == [payload(r) for r in results]
    assert hits[-1] == 3


def test_run_replica_batch_multiprocess_matches_serial():
    from repro.runtime.runner import run_replica_batch
    from repro.runtime.spec import PointSpec

    system = RingSystemConfig(topology="2:4", cache_line_bytes=32)
    workload = WorkloadConfig(miss_rate=0.05, outstanding=4)
    spec = PointSpec(system, workload, PARAMS)
    seeds = (5, 6, 7, 8)
    serial = run_replica_batch(spec, seeds=seeds, jobs=1, cache=None)
    pooled = run_replica_batch(spec, seeds=seeds, jobs=2, cache=None)
    assert [payload(r) for r in pooled] == [payload(r) for r in serial]


def test_simulate_batch_rejects_multi_replica_miss_sources():
    class NullSource:
        def poll(self, cycle, can_issue):
            return None

    system = RingSystemConfig(topology="8", cache_line_bytes=32)
    sources = [NullSource() for __ in range(8)]
    with pytest.raises(ConfigurationError):
        simulate_batch(
            system, None, replace(PARAMS, replicas=2), miss_sources=sources
        )


def test_batched_latency_summaries_are_finite_under_load():
    """Sanity on the statistics plumbing: a loaded batch produces real
    per-replica latency summaries, not NaN placeholders."""
    system = RingSystemConfig(topology="2:4", cache_line_bytes=32)
    workload = WorkloadConfig(miss_rate=0.1, outstanding=4)
    batch = simulate_batch(
        system, workload, replace(PARAMS, batch_cycles=400, replicas=2)
    )
    for result in batch:
        assert result.remote_transactions > 0
        assert not math.isnan(result.latency.mean)
