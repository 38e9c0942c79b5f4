"""FIFO flit buffers.

All storage in the simulated networks — ring transit buffers, IRI
up/down queues, mesh router input buffers, processing-module output
queues and ejection sinks — is a :class:`FlitBuffer`.  The transfer
resolver in :mod:`repro.core.engine` relies on two structural
facts enforced by the components: per cycle each buffer has at most one
writer (a single upstream link or the local PM) and at most one reader.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from .packet import Flit


class FlitBuffer:
    """A bounded (or unbounded) FIFO of flits.

    Parameters
    ----------
    name:
        Diagnostic label, e.g. ``"ring[0,1].nic3.ring_buffer"``.
    capacity:
        Maximum number of flits, or ``None`` for an unbounded buffer
        (used only for endpoint sinks and PM-internal staging queues).
    """

    __slots__ = (
        "name",
        "capacity",
        "_flits",
        "flits_enqueued",
        "flits_dequeued",
        "_wake_on_push",
        "_wake_on_pop",
        "_buf_id",
    )

    def __init__(self, name: str, capacity: int | None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"buffer {name!r}: capacity must be >= 1 or None")
        self.name = name
        self.capacity = capacity
        self._flits: deque[Flit] = deque()
        self.flits_enqueued = 0
        self.flits_dequeued = 0
        # Filled in by the compiled scheduler at finalize time
        # (attribute access beats a dict lookup in the commit hot loop):
        # components to wake when a transfer lands in / drains this buffer.
        self._wake_on_push: (
            "tuple[tuple[int, ...] | None, tuple[int, ...] | None] | None"
        ) = None
        self._wake_on_pop: "tuple[int, ...] | None" = None
        # Dense id assigned lazily by the engine's compiled datapath; -1
        # until the first proposal names this buffer.  The engine
        # validates identity on every resolve, so a buffer reused with a
        # second engine is simply re-registered there.
        self._buf_id = -1

    @property
    def occupancy(self) -> int:
        return len(self._flits)

    @property
    def is_empty(self) -> bool:
        return not self._flits

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._flits) >= self.capacity

    @property
    def free_slots(self) -> int | None:
        """Free flit slots, or ``None`` if unbounded."""
        if self.capacity is None:
            return None
        return self.capacity - len(self._flits)

    def peek(self) -> Flit | None:
        """The flit at the head of the FIFO, or ``None`` when empty."""
        return self._flits[0] if self._flits else None

    def push(self, flit: Flit) -> None:
        if self.is_full:
            raise OverflowError(f"buffer {self.name!r} overflow")
        self._flits.append(flit)
        self.flits_enqueued += 1

    def pop(self) -> Flit:
        if not self._flits:
            raise IndexError(f"buffer {self.name!r} underflow")
        self.flits_dequeued += 1
        return self._flits.popleft()

    def push_packet(self, flits: Iterator[Flit]) -> None:
        """Enqueue a whole packet atomically (used at injection points)."""
        for flit in flits:
            self.push(flit)

    def conservation_delta(self) -> int:
        """``enqueued - dequeued - occupancy``; 0 iff counters and content agree.

        Every fill path (``push``/``push_packet``, the engine's compiled
        commit loop, the PM's fused update closures) must keep the FIFO
        counters in lockstep with the deque, so a non-zero delta means a
        datapath lost or duplicated a flit.  Checked per cycle by
        :mod:`repro.audit`.
        """
        return self.flits_enqueued - self.flits_dequeued - len(self._flits)

    def __len__(self) -> int:
        return len(self._flits)

    def __bool__(self) -> bool:
        """Truthy iff non-empty (kernel hot path; bypasses ``__len__``)."""
        return bool(self._flits)

    def __iter__(self) -> Iterator[Flit]:
        return iter(self._flits)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cap = "inf" if self.capacity is None else str(self.capacity)
        return f"FlitBuffer({self.name}, {len(self._flits)}/{cap})"
