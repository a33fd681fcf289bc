"""Drop-tail FIFO output queue.

Each directed link channel owns one.  Capacity counts packets (the paper's
simulator used a 20-packet queue per node); arrivals beyond capacity are
rejected and accounted as ``QUEUE_OVERFLOW`` drops by the caller.
"""

from __future__ import annotations

from typing import Optional

from .packet import Packet

__all__ = ["DropTailQueue"]


class DropTailQueue:
    """Bounded FIFO of packets.

    A list, not a deque: every link direction owns one and most stay empty,
    and an empty deque weighs 760 bytes.  The capacity is small (20 packets
    by default), so popping the head of a list costs little.
    """

    __slots__ = ("capacity", "_items", "enqueued", "dropped", "drained", "depth_hwm")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: list[Packet] = []
        self.enqueued = 0
        self.dropped = 0
        #: Packets removed by :meth:`drain` (link failure) rather than popped
        #: for transmission.  Every drained packet must be re-accounted by the
        #: caller as a LINK_DOWN drop — ``enqueued == popped + drained + len``
        #: is the queue's conservation identity.
        self.drained = 0
        #: Deepest the queue has ever been (packets); an always-on integer,
        #: harvested by the observability layer (repro.obs) after the run.
        self.depth_hwm = 0

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        """Iterate queued packets head-first without consuming them."""
        return iter(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._items

    def push(self, packet: Packet) -> bool:
        """Append if there is room; returns False (and counts a drop) if full."""
        if self.full:
            self.dropped += 1
            return False
        self._items.append(packet)
        self.enqueued += 1
        if len(self._items) > self.depth_hwm:
            self.depth_hwm = len(self._items)
        return True

    def pop(self) -> Optional[Packet]:
        """Remove and return the head packet, or None when empty."""
        if not self._items:
            return None
        return self._items.pop(0)

    def drain(self) -> list[Packet]:
        """Remove and return all queued packets (used on link failure).

        Drained packets leave the queue without being transmitted; the caller
        owns their fate and must account for each one (the link-failure path
        records them as LINK_DOWN drops — see ``_Channel.flush_on_failure``).
        ``drained`` counts them so the conservation identity stays checkable.
        """
        items = self._items
        self._items = []
        self.drained += len(items)
        return items
