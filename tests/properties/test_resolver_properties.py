"""Property-based tests of the engine's flow-control resolution.

Random buffer graphs where every buffer has at most one incoming and one
outgoing edge — the union of chains and cycles, which is exactly the
structure ring networks and wormhole paths induce.  After one cycle:

* **safety** — no buffer ever exceeds its capacity, flits are conserved;
* **maximality (greatest fixed point)** — any proposed transfer that
  did not commit was genuinely blocked: its destination ends the cycle
  completely full.  (A least-fixed-point/conservative resolver would
  fail this on full cycles, which must rotate.)

Every property runs under both schedulers.  The capacity assertion is
load-bearing for the compiled datapath specifically: its commit loop
elides the per-flit overflow check (`FlitBuffer.push`'s raise) on the
strength of the integer-loop resolver, so an overflow there would
corrupt silently rather than raise — only this invariant check would
catch it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffers import FlitBuffer
from repro.core.engine import Component, Engine
from repro.core.packet import Packet, PacketType

SCHEDULERS = ("compiled", "naive")


class Pipe(Component):
    def __init__(self, source, dest):
        self.source = source
        self.dest = dest

    def propose(self, engine):
        flit = self.source.peek()
        if flit is not None:
            engine.propose(flit, self.source, self.dest, None, self)


def flit_supply(n):
    return list(Packet(PacketType.READ_RESPONSE, 0, 1, max(n, 1), 0, 0).flits)


@st.composite
def buffer_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    capacities = [draw(st.integers(min_value=1, max_value=3)) for _ in range(n)]
    occupancies = [
        draw(st.integers(min_value=0, max_value=capacities[i])) for i in range(n)
    ]
    # A partial matching: each buffer feeds at most one other buffer and
    # is fed by at most one.  Encode as a permutation plus an edge mask.
    permutation = draw(st.permutations(range(n)))
    edge_mask = [draw(st.booleans()) for _ in range(n)]
    return n, capacities, occupancies, permutation, edge_mask


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@given(graph=buffer_graphs())
@settings(max_examples=300, deadline=None)
def test_one_cycle_is_safe_and_maximal(scheduler, graph):
    n, capacities, occupancies, permutation, edge_mask = graph
    buffers = [FlitBuffer(f"b{i}", capacity=capacities[i]) for i in range(n)]
    supply = iter(flit_supply(sum(occupancies) + 1))
    for i, count in enumerate(occupancies):
        for _ in range(count):
            buffers[i].push(next(supply))

    edges = [
        (i, permutation[i])
        for i in range(n)
        if edge_mask[i] and permutation[i] != i
    ]
    engine = Engine(scheduler=scheduler)
    for src, dst in edges:
        engine.add_component(Pipe(buffers[src], buffers[dst]))

    before_total = sum(b.occupancy for b in buffers)
    before_occupancy = [b.occupancy for b in buffers]
    engine.step()

    # Safety: capacity respected, flits conserved.
    for buffer, capacity in zip(buffers, capacities):
        assert buffer.occupancy <= capacity
    assert sum(b.occupancy for b in buffers) == before_total

    # Per-buffer flow bounds: at most one in, one out.
    for i, buffer in enumerate(buffers):
        assert abs(buffer.occupancy - before_occupancy[i]) <= 1

    # Maximality: a proposed-but-uncommitted transfer implies a full,
    # non-draining destination at end of cycle.
    moved = {
        (src, dst)
        for src, dst in edges
        if buffers[src].flits_dequeued > 0
    }
    for src, dst in edges:
        if before_occupancy[src] == 0:
            continue  # nothing to propose
        if (src, dst) in moved:
            continue
        assert buffers[dst].occupancy == capacities[dst], (
            f"edge {src}->{dst} was revoked although destination "
            f"b{dst} is not full after the cycle"
        )


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@given(
    length=st.integers(min_value=2, max_value=10),
    capacity=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=100, deadline=None)
def test_full_cycle_always_rotates(scheduler, length, capacity):
    """A completely full directed cycle advances every flit, every cycle."""
    buffers = [FlitBuffer(f"b{i}", capacity=capacity) for i in range(length)]
    supply = iter(flit_supply(length * capacity))
    for buffer in buffers:
        for _ in range(capacity):
            buffer.push(next(supply))
    engine = Engine(scheduler=scheduler)
    for i in range(length):
        engine.add_component(Pipe(buffers[i], buffers[(i + 1) % length]))
    heads = [buffer.peek() for buffer in buffers]
    engine.step()
    for i in range(length):
        expected_newcomer = heads[i]
        landed = list(buffers[(i + 1) % length])[-1]
        assert landed is expected_newcomer
