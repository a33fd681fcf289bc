"""Drop and message counters driven by the trace bus.

Both collectors subscribe on construction and hold a back-reference to the
bus so they can ``close()`` — i.e. unsubscribe — when their run is over.
Long campaign processes attach fresh collectors per scenario; without the
unsubscribe, every dead collector would stay on the bus's handler list,
keeping the ``wants_*`` guards stuck on (per-packet record allocations
forever) and growing the dispatch fan-out run after run.  Both collectors
are context managers; keep using the counts after ``close()`` — only the
subscription is released.
"""

from __future__ import annotations

from typing import Optional

from ..sim.tracing import DropCause, MessageRecord, PacketRecord, TraceBus

__all__ = ["DropCounter", "MessageCounter"]


class DropCounter:
    """Counts data-packet drops by cause, with optional time windowing.

    The paper reports drops during the convergence period; passing
    ``window_start`` (failure time) restricts counting to drops at or after
    that instant — pre-failure steady state contributes nothing anyway, which
    tests assert.
    """

    def __init__(self, bus: TraceBus, window_start: Optional[float] = None) -> None:
        self.window_start = window_start
        self.by_cause: dict[DropCause, int] = {cause: 0 for cause in DropCause}
        self._bus: Optional[TraceBus] = bus
        bus.subscribe("packet", self._on_packet)

    def _on_packet(self, record: PacketRecord) -> None:
        if record.kind != "drop" or record.cause is None:
            return
        if self.window_start is not None and record.time < self.window_start:
            return
        self.by_cause[record.cause] += 1

    def close(self) -> None:
        """Unsubscribe from the bus (idempotent); counts remain readable."""
        if self._bus is not None:
            self._bus.unsubscribe("packet", self._on_packet)
            self._bus = None

    def __enter__(self) -> "DropCounter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def no_route(self) -> int:
        return self.by_cause[DropCause.NO_ROUTE]

    @property
    def ttl_expired(self) -> int:
        return self.by_cause[DropCause.TTL_EXPIRED]

    @property
    def link_down(self) -> int:
        return self.by_cause[DropCause.LINK_DOWN]

    @property
    def queue_overflow(self) -> int:
        return self.by_cause[DropCause.QUEUE_OVERFLOW]

    @property
    def total(self) -> int:
        return sum(self.by_cause.values())


class MessageCounter:
    """Routing overhead: messages, route entries, and bytes sent."""

    def __init__(self, bus: TraceBus, window_start: Optional[float] = None) -> None:
        self.window_start = window_start
        self.messages = 0
        self.routes = 0
        self.withdrawals = 0
        self.bytes_sent = 0
        self._bus: Optional[TraceBus] = bus
        bus.subscribe("message", self._on_message)

    def _on_message(self, record: MessageRecord) -> None:
        if self.window_start is not None and record.time < self.window_start:
            return
        self.messages += 1
        self.routes += record.n_routes
        self.bytes_sent += record.size_bytes
        if record.is_withdrawal:
            self.withdrawals += 1

    def close(self) -> None:
        """Unsubscribe from the bus (idempotent); counts remain readable."""
        if self._bus is not None:
            self._bus.unsubscribe("message", self._on_message)
            self._bus = None

    def __enter__(self) -> "MessageCounter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
