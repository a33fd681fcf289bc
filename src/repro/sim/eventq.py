"""The event queue of the simulation engine.

The :class:`~repro.sim.engine.Simulator` orders events by
``(time, as_of, seq)`` tuples — absolute fire time, then the instant the event
is ranked as scheduled at, then a monotone insertion counter, so same-time
events scheduled at the same instant execute FIFO.  :class:`HeapEventQueue`
holds plain ``(time, as_of, seq, handle)`` tuples in a binary heap:
``O(log n)`` push/pop through the C-implemented :mod:`heapq`.  The queue itself
only compares tuples; it does not care how many rank fields precede the handle.

Lazy cancellation lives above the queue: the engine pops flagged husks itself.
"""

from __future__ import annotations

from heapq import heappop, heappush

__all__ = ["HeapEventQueue"]


class HeapEventQueue:
    """Binary-heap event queue: plain list managed by :mod:`heapq`."""

    __slots__ = ("_q", "hwm")

    def __init__(self) -> None:
        self._q: list = []
        self.hwm = 0

    def __len__(self) -> int:
        return len(self._q)

    def push(self, entry) -> None:
        q = self._q
        heappush(q, entry)
        if len(q) > self.hwm:
            self.hwm = len(q)

    def peek(self):
        """Smallest entry without removing it, or None when empty."""
        q = self._q
        return q[0] if q else None

    def pop(self):
        """Remove and return the smallest entry (queue must be non-empty)."""
        return heappop(self._q)
