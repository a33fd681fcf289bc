"""Drop and message counts read off the counters a run always keeps.

Every node counts its data-packet drops by cause and every bus counts the
routing messages sent on it, whether or not anything subscribed.  A
:func:`tally` is one snapshot of those counters; the counts of a stretch of
simulated time are the difference of the snapshots at its ends, and a
sharded run's counts are the sum of its shards' differences.
"""

from __future__ import annotations

from typing import NamedTuple

from ..net.network import Network
from ..sim.tracing import DropCause

__all__ = ["Tally", "tally"]


class Tally(NamedTuple):
    """Data-packet drops by cause plus routing messages, withdrawals and
    bytes sent.  ``-`` and ``+`` act field by field."""

    drops_no_route: int = 0
    drops_ttl: int = 0
    drops_link_down: int = 0
    drops_queue: int = 0
    messages: int = 0
    withdrawals: int = 0
    message_bytes: int = 0

    @property
    def drops(self) -> int:
        return self.drops_no_route + self.drops_ttl + self.drops_link_down + self.drops_queue

    def __sub__(self, other: "Tally") -> "Tally":
        return Tally(*(a - b for a, b in zip(self, other)))

    def __add__(self, other: "Tally") -> "Tally":
        return Tally(*(a + b for a, b in zip(self, other)))


def tally(network: Network) -> Tally:
    """The drop and message counts ``network`` has seen so far."""
    counters = network.bus.counters
    return Tally(
        network.total_drops(DropCause.NO_ROUTE),
        network.total_drops(DropCause.TTL_EXPIRED),
        network.total_drops(DropCause.LINK_DOWN),
        network.total_drops(DropCause.QUEUE_OVERFLOW),
        counters.messages,
        counters.withdrawals,
        counters.message_bytes,
    )
