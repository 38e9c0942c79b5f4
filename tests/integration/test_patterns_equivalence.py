"""Scheduler equivalence and cache identity for the traffic patterns.

The pattern suite reuses the PM draw discipline of the M-MRP selector
(one ``randrange`` per miss, none for permutation singletons), so the
byte-identity contract of ``test_kernel_equivalence`` must extend to
every pattern — including bursty injection, which runs the generic
(non-fused) PM path under the compiled scheduler.  And a
pattern run must be a *distinct workload identity*: its canonical
payload (hence cache key and derived seed) must never collide with a
plain M-MRP run, while plain M-MRP payloads stay byte-identical to the
pre-pattern schema so existing cached results remain valid.
"""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import (
    MeshSystemConfig,
    RingSystemConfig,
    SimulationParams,
    WorkloadConfig,
)
from repro.core.simulation import simulate
from repro.runtime import PointSpec, run_points
from repro.runtime.serialization import (
    canonical_json,
    result_payload,
    workload_payload,
)
from repro.workload.patterns import PATTERN_NAMES

PARAMS = SimulationParams(batch_cycles=350, batches=3, seed=11)

SCHEDULERS = ("compiled", "naive")

#: 16 PMs on both fabrics: P = 4^k keeps every bit pattern (and the
#: ring transpose) valid.
SYSTEMS = [
    pytest.param(
        RingSystemConfig(topology="2:8", cache_line_bytes=32), id="ring-2level"
    ),
    pytest.param(MeshSystemConfig(side=4, cache_line_bytes=32), id="mesh-4x4"),
]


def run_all(system, workload, params=PARAMS):
    return {
        scheduler: simulate(system, workload, replace(params, scheduler=scheduler))
        for scheduler in SCHEDULERS
    }


def assert_identical(results):
    payloads = {
        scheduler: canonical_json(result_payload(result))
        for scheduler, result in results.items()
    }
    baseline = payloads["naive"]
    for scheduler, payload in payloads.items():
        assert payload == baseline, f"{scheduler} result diverged from naive"


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("pattern", ("uniform", "transpose", "hotspot"))
def test_pattern_schedulers_bit_identical(system, pattern):
    workload = WorkloadConfig(miss_rate=0.05, outstanding=4, pattern=pattern)
    results = run_all(system, workload)
    assert results["naive"].remote_transactions > 0
    assert_identical(results)


@pytest.mark.parametrize("system", SYSTEMS)
def test_bursty_schedulers_bit_identical(system):
    """Bursty runs the generic PM path under compiled; it must
    still agree with naive bit for bit."""
    workload = WorkloadConfig(
        miss_rate=0.05, outstanding=4, burst_on=25.0, burst_off=75.0
    )
    results = run_all(system, workload)
    assert results["naive"].remote_transactions > 0
    assert_identical(results)


def test_pattern_runs_identical_across_jobs():
    """--jobs 1 vs N byte-identity holds for pattern points too."""
    system = RingSystemConfig(topology="2:8", cache_line_bytes=32)
    specs = [
        PointSpec.of(system, WorkloadConfig(miss_rate=0.05, pattern=pattern), PARAMS)
        for pattern in ("uniform", "transpose", "hotspot")
    ]

    def payloads(results):
        return [canonical_json(result_payload(result)) for result in results]

    serial = payloads(run_points(specs, jobs=1, cache=None))
    parallel = payloads(run_points(specs, jobs=3, cache=None))
    assert serial == parallel


MISS_RATES = st.sampled_from([0.01, 0.04, 0.1])


class TestCacheIdentity:
    @given(pattern=st.sampled_from(PATTERN_NAMES), miss_rate=MISS_RATES)
    def test_pattern_payload_never_collides_with_mmrp(self, pattern, miss_rate):
        mmrp = workload_payload(WorkloadConfig(miss_rate=miss_rate))
        patterned = workload_payload(
            WorkloadConfig(miss_rate=miss_rate, pattern=pattern)
        )
        assert patterned != mmrp
        assert patterned["pattern"] == pattern

    @given(miss_rate=MISS_RATES, locality=st.sampled_from([0.25, 0.5, 1.0]))
    def test_mmrp_payload_schema_unchanged(self, miss_rate, locality):
        """Plain M-MRP payloads must stay byte-identical to the
        pre-pattern schema so existing cached results stay valid."""
        payload = workload_payload(
            WorkloadConfig(locality=locality, miss_rate=miss_rate)
        )
        assert sorted(payload) == [
            "locality", "miss_rate", "outstanding", "read_fraction",
        ]

    def test_hotspot_knobs_only_join_for_hotspot(self):
        uniform = workload_payload(WorkloadConfig(miss_rate=0.04, pattern="uniform"))
        assert "hotspot_count" not in uniform
        hotspot = workload_payload(WorkloadConfig(miss_rate=0.04, pattern="hotspot"))
        assert hotspot["hotspot_count"] == 2 and hotspot["hotspot_weight"] == 8

    def test_distinct_spec_keys_and_seeds(self):
        """Same system/params: a pattern point and an M-MRP point must
        differ in cache key AND derived seed — no cross-serving."""
        system = RingSystemConfig(topology="2:8", cache_line_bytes=32)
        params = SimulationParams(batch_cycles=350, batches=3, seed=1)  # base seed
        keys, seeds = set(), set()
        for workload in (
            WorkloadConfig(miss_rate=0.05),
            WorkloadConfig(miss_rate=0.05, pattern="uniform"),
            WorkloadConfig(miss_rate=0.05, pattern="hotspot"),
            WorkloadConfig(miss_rate=0.05, burst_on=25.0, burst_off=75.0),
        ):
            spec = PointSpec.of(system, workload, params)  # derives the seed
            keys.add(spec.key())
            seeds.add(spec.params.seed)
        assert len(keys) == 4
        assert len(seeds) == 4

    def test_roundtrip_through_payload(self):
        for workload in (
            WorkloadConfig(miss_rate=0.05, pattern="hotspot", hotspot_weight=4),
            WorkloadConfig(miss_rate=0.05, burst_on=25.0, burst_off=75.0),
        ):
            payload = workload_payload(workload)
            from repro.runtime.serialization import workload_from_payload

            rebuilt = workload_from_payload(payload)
            assert workload_payload(rebuilt) == payload
            assert rebuilt.pattern == workload.pattern
            assert rebuilt.bursty == workload.bursty
