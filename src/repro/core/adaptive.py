"""Precision-driven simulation: run batches until the CI is tight.

The paper fixes its batch count; in practice different operating points
need very different run lengths (a saturated ring's latency variance
dwarfs an idle mesh's).  :func:`simulate_to_precision` keeps adding
batch-means batches until the latency confidence interval's relative
half-width drops below a target, or a batch budget is exhausted —
standard sequential batch-means methodology (MacDougall 1987, the
paper's own simulation reference).
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import SimulationParams, WorkloadConfig
from .engine import Engine
from .errors import ConfigurationError
from .pm import MetricsHub
from .simulation import SimulationResult, SystemConfig, build_network
from .statistics import RateMeter


@dataclass
class AdaptiveResult:
    """A :class:`SimulationResult` plus convergence bookkeeping."""

    result: SimulationResult
    converged: bool
    batches_run: int
    relative_half_width: float

    @property
    def avg_latency(self) -> float:
        return self.result.avg_latency


def simulate_to_precision(
    system: SystemConfig,
    workload: WorkloadConfig | None = None,
    relative_precision: float = 0.05,
    batch_cycles: int = 2000,
    min_batches: int = 4,
    max_batches: int = 40,
    seed: int = 1,
    deadlock_threshold: int = 50_000,
    flow_control: str = "bypass",
) -> AdaptiveResult:
    """Run until the latency CI half-width is within *relative_precision*.

    ``min_batches`` counts all batches including the discarded warm-up
    batch, so at least ``min_batches - 1`` batches contribute to the
    estimate before convergence is evaluated.
    """
    if not 0 < relative_precision < 1:
        raise ConfigurationError("relative_precision must be in (0, 1)")
    if min_batches < 3:
        raise ConfigurationError("need min_batches >= 3 (warm-up plus two)")
    if max_batches < min_batches:
        raise ConfigurationError("max_batches must be >= min_batches")
    workload = (workload or WorkloadConfig()).validate()

    metrics = MetricsHub()
    network = build_network(system, workload, metrics, seed=seed)
    engine = Engine(deadlock_threshold=deadlock_threshold, flow_control=flow_control)
    network.register(engine)

    levels = list(network.levels_present)
    util_meters = {level: RateMeter(level) for level in levels}
    all_meter = RateMeter("__all__")
    throughput_meter = RateMeter("throughput")

    batches_run = 0
    relative = float("inf")
    converged = False
    while batches_run < max_batches:
        engine.run(batch_cycles)
        batches_run += 1
        metrics.close_batch()
        for level, meter in util_meters.items():
            meter.close_batch(
                network.flits_carried(level), network.opportunities(engine.cycle, level)
            )
        all_meter.close_batch(
            network.flits_carried(None), network.opportunities(engine.cycle, None)
        )
        throughput_meter.close_batch(
            metrics.remote_completed + metrics.local_completed, engine.cycle
        )
        if batches_run < min_batches:
            continue
        summary = metrics.remote_latency.batch.summary()
        relative = summary.relative_half_width
        if relative <= relative_precision:
            converged = True
            break

    utilization = {level: meter.summary() for level, meter in util_meters.items()}
    utilization["__all__"] = all_meter.summary()
    params = SimulationParams(
        batch_cycles=batch_cycles,
        batches=batches_run,
        seed=seed,
        deadlock_threshold=deadlock_threshold,
        flow_control=flow_control,
    )
    result = SimulationResult(
        system=system,
        workload=workload,
        params=params,
        cycles=engine.cycle,
        latency=metrics.remote_latency.batch.summary(),
        local_latency=metrics.local_latency.batch.summary(),
        utilization=utilization,
        throughput=throughput_meter.summary(),
        remote_transactions=metrics.remote_completed,
        local_transactions=metrics.local_completed,
        flits_moved=engine.flits_moved,
    )
    return AdaptiveResult(
        result=result,
        converged=converged,
        batches_run=batches_run,
        relative_half_width=relative,
    )
