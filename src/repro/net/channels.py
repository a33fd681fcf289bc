"""Reliable in-order neighbor channel (the TCP abstraction under BGP).

BGP in the paper runs over TCP, so routing updates between neighbors are
never lost or reordered while the link is up, and no periodic refresh is
needed.  :class:`ReliableChannel` models exactly that contract:

* messages are delivered in send order;
* each message occupies the sender for ``size/bandwidth`` seconds (FIFO
  serialization) and then propagates for the link delay;
* messages still in flight when the link fails are destroyed (the TCP session
  dies with the link), and the channel refuses sends while the link is down.

Unlike data packets, reliable messages do not contend with the drop-tail
queue — TCP's retransmission would win eventually anyway, and the paper's
control plane is loss-free.  This substitution is recorded in DESIGN.md.
"""

from __future__ import annotations

from typing import Any, Callable

from ..sim.engine import EventHandle, Simulator
from ..sim.units import transmission_delay
from .link import Link

__all__ = ["ReliableChannel"]


class _Pending:
    """One in-flight reliable message.

    Besides the cancelable event handle, the entry keeps the payload and the
    serialization start time: the sharded delivery sequencer (repro.dist)
    needs both to replay same-instant arrivals in canonical order.
    """

    __slots__ = ("handle", "payload", "tx_start")

    def __init__(self, handle: EventHandle, payload: Any, tx_start: float) -> None:
        self.handle = handle
        self.payload = payload
        self.tx_start = tx_start


class ReliableChannel:
    """One direction of a reliable neighbor session."""

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        src: int,
        deliver: Callable[[Any], None],
    ) -> None:
        self._sim = sim
        self._link = link
        self.src = src
        self.dst = link.other_end(src)
        self._deliver = deliver
        self._busy_until = 0.0
        self._in_flight: list[_Pending] = []
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_lost = 0
        #: Arrival interceptor, called as ``gate(channel, entry)`` instead of
        #: delivering; inherited from the link so sessions opened at any time
        #: get it (see Link.reliable_gate).
        self.arrival_gate = link.reliable_gate
        link.fail_listeners.append(self._on_link_fail)

    @property
    def connected(self) -> bool:
        return self._link.up

    def send(self, payload: Any, size_bytes: int) -> bool:
        """Queue ``payload`` for in-order delivery; False if the session is down."""
        if not self._link.up:
            return False
        now = self._sim.now
        start = max(now, self._busy_until)
        tx = transmission_delay(size_bytes, self._link.spec.bandwidth)
        self._busy_until = start + tx
        arrive_at = self._busy_until + self._link.spec.delay
        entry = _Pending(None, payload, start)  # type: ignore[arg-type]
        entry.handle = self._sim.schedule_at(
            arrive_at, lambda: self._arrive(entry)
        )
        self._in_flight.append(entry)
        self.messages_sent += 1
        tap = self._link.message_tap
        if tap is not None:
            tap(self.src, self.dst, payload, arrive_at, start)
        return True

    def _arrive(self, entry: _Pending) -> None:
        self._in_flight = [e for e in self._in_flight if e.handle.pending]
        if not self._link.up:
            self.messages_lost += 1
            return
        gate = self.arrival_gate
        if gate is not None:
            gate(self, entry)
            return
        self.deliver_now(entry.payload)

    def deliver_now(self, payload: Any) -> None:
        """Finish an arrival whose event already fired (or was cancelled by
        a sequencer replaying the slot in canonical order)."""
        self.messages_delivered += 1
        self._deliver(payload)

    def close(self) -> None:
        """The session is over: stop listening to the link's failures, unless
        a message is still in flight (a link restored before its failure was
        detected can carry one; a later failure must still destroy it, and
        the sharded delivery sequencer finds it through the listeners)."""
        if not any(entry.handle.pending for entry in self._in_flight):
            self._link.fail_listeners.remove(self._on_link_fail)

    def _on_link_fail(self) -> None:
        for entry in self._in_flight:
            if entry.handle.pending:
                entry.handle.cancel()
                self.messages_lost += 1
        self._in_flight.clear()
        self._busy_until = self._sim.now
