"""On-demand route discovery shared by the reactive protocols (AODV, DSR).

Both build routes only when data needs them, and both find them the same
way: the origin buffers a packet that missed and floods a request; an
attempt that times out is retried with binary exponential backoff, and when
the attempts run out the buffer is dropped as ``NO_ROUTE``.  What differs is
the route cache a reply fills, so a subclass supplies three hooks:
``_send_request(dest)`` floods one request, ``_resolved(dest)`` says whether
the cache can reach ``dest`` now, and ``_forward(packet)`` sends a released
packet on its way (or drops it).  A retry asks ``_resolved`` first: a route
learned some other way ends the discovery without another flood.
"""

from __future__ import annotations

from ..net.node import Node
from ..net.packet import Packet
from ..sim.rng import RngStreams
from ..sim.timers import OneShotTimer
from ..sim.tracing import DropCause
from .base import RoutingProtocol

__all__ = ["ReactiveProtocol"]


class _Discovery:
    """In-flight route discovery for one destination."""

    __slots__ = ("attempts", "timer", "packets")

    def __init__(self, timer: OneShotTimer) -> None:
        self.attempts = 0
        self.timer = timer
        self.packets: list[Packet] = []


class ReactiveProtocol(RoutingProtocol):
    """Request/reply discovery with per-destination send buffers.  A link
    coming up changes nothing: routes are built when data asks for them."""

    def __init__(
        self, node: Node, rng_streams: RngStreams,
        timeout: float, retries: int, buffer_limit: int,
    ) -> None:
        super().__init__(node, rng_streams)
        self._timeout = timeout
        self._retries = retries
        self._buffer_limit = buffer_limit
        #: (origin, request id) of every request seen, to stop floods.
        self._seen: set[tuple[int, int]] = set()
        self._pending: dict[int, _Discovery] = {}
        self.discoveries = 0
        self.discovery_failures = 0

    def _discover(self, packet: Packet) -> None:
        """Buffer ``packet`` until a route to its destination is found,
        starting a discovery unless one is already running."""
        dest = packet.dst
        disc = self._pending.get(dest)
        if disc is not None:
            self._buffer(disc, packet)
            return
        disc = self._pending[dest] = _Discovery(
            OneShotTimer(self.sim, lambda: self._retry(dest))
        )
        self._buffer(disc, packet)
        self.discoveries += 1
        disc.attempts = 1
        self._send_request(dest)
        disc.timer.start(self._timeout)

    def _buffer(self, disc: _Discovery, packet: Packet) -> None:
        if len(disc.packets) >= self._buffer_limit:
            self.node.drop(disc.packets.pop(0), DropCause.QUEUE_OVERFLOW)
        disc.packets.append(packet)

    def _retry(self, dest: int) -> None:
        disc = self._pending.get(dest)
        if disc is None:
            return
        if self._resolved(dest):
            self._release(dest)
            return
        if disc.attempts > self._retries:
            del self._pending[dest]
            self.discovery_failures += 1
            for packet in disc.packets:
                self.node.drop(packet, DropCause.NO_ROUTE)
            return
        disc.attempts += 1
        self._send_request(dest)
        # Binary exponential backoff (RFC 3561 §6.3).
        disc.timer.start(self._timeout * 2 ** (disc.attempts - 1))

    def _release(self, dest: int) -> None:
        """End the discovery for ``dest`` and forward what it buffered."""
        disc = self._pending.pop(dest, None)
        if disc is None:
            return
        disc.timer.cancel()
        for packet in disc.packets:
            self._forward(packet)

    def pending_data_packets(self) -> int:
        return sum(len(d.packets) for d in self._pending.values())
