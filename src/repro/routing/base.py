"""Routing protocol interface and shared plumbing.

Every protocol instance is bound to one node.  The node calls
:meth:`handle_message` for arriving control payloads and
:meth:`handle_link_down` / :meth:`handle_link_up` when failure detection
fires; the protocol drives the node's FIB via ``node.set_next_hop``.

``warm_start`` installs the protocol's exact converged state for a topology,
letting experiments skip the multi-minute cold-start period; integration
tests verify warm state equals what cold convergence reaches.

Every message leaves a protocol through :meth:`RoutingProtocol._send`,
:meth:`RoutingProtocol._flood` or :meth:`SessionProtocol._send_reliable`.
"""

from __future__ import annotations

import abc
import random
from contextlib import contextmanager
from functools import cached_property
from typing import Any, Iterator, Optional

from ..net.channels import ReliableChannel
from ..net.network import Network
from ..net.node import Node
from ..sim.engine import Simulator
from ..sim.rng import RngStreams
from ..sim.tracing import MessageRecord
from ..topology.graph import Topology

__all__ = ["RoutingProtocol", "SessionProtocol"]


class RoutingProtocol(abc.ABC):
    """Base class for the routing protocols under study."""

    #: Human-readable protocol name ("rip", "dbf", "bgp", ...); set by subclass.
    name: str = "abstract"

    def __init__(self, node: Node, rng_streams: RngStreams) -> None:
        self.node = node
        self.sim: Simulator = node.sim
        self._rng_streams = rng_streams
        self.messages_sent = 0
        self.routes_sent = 0
        node.attach_protocol(self)

    @cached_property
    def rng(self) -> random.Random:
        """This router's jitter stream, created on its first draw: most BGP
        routers of a large run never draw, and a ``random.Random`` weighs
        2.5 KiB.  The stream is seeded from its label alone, so when it is
        created changes no draw."""
        return self._rng_streams.stream(f"{self.name}.node{self.node.id}")

    # --------------------------------------------------------------- lifecycle

    @abc.abstractmethod
    def start(self) -> None:
        """Begin protocol operation from empty state (cold start)."""

    @abc.abstractmethod
    def warm_start(self, topology: Topology) -> None:
        """Install converged state for ``topology`` and arm steady-state timers."""

    # ---------------------------------------------------------------- events

    @abc.abstractmethod
    def handle_message(self, payload: Any, from_node: int) -> None:
        """Process a routing message from a directly connected neighbor."""

    @abc.abstractmethod
    def handle_link_down(self, neighbor: int) -> None:
        """The link to ``neighbor`` was detected down."""

    def handle_link_up(self, neighbor: int) -> None:
        """The link to ``neighbor`` came (back) up.  Default: ignore."""

    # ----------------------------------------------------- causal attribution

    @contextmanager
    def route_cause(self, kind: str, peer: Optional[int] = None) -> Iterator[None]:
        """Scope during which FIB changes are attributed to ``(kind, peer)``.

        ``node.set_next_hop`` stamps the current scope onto every
        :class:`~repro.sim.tracing.RouteChangeRecord` it publishes, which is
        what lets the flight recorder link a routing-protocol message to the
        FIB flips it triggered.  Scopes nest; the previous cause is restored
        on exit.  Control-plane only — the data hot path never enters one.
        """
        node = self.node
        previous = node.route_cause
        node.route_cause = (kind, peer)
        try:
            yield
        finally:
            node.route_cause = previous

    def apply_message(self, payload: Any, from_node: int) -> None:
        """Apply a neighbor's message with causal attribution.

        Delivery paths that bypass ``Node.receive`` (BGP's and DUAL's
        reliable channels hand payloads straight to the peer protocol) call
        this instead of :meth:`handle_message` so the change still lands in
        a ``("message", from_node)`` cause scope.  ``Node.receive`` sets the
        scope itself, keeping duck-typed protocol stand-ins workable.
        """
        with self.route_cause("message", from_node):
            self.handle_message(payload, from_node)

    # -------------------------------------------------------------- inspection

    @abc.abstractmethod
    def route_metric(self, dest: int) -> Optional[int]:
        """Current metric/path length to ``dest`` (None if unreachable)."""

    def pending_data_packets(self) -> int:
        """Data packets the protocol is holding (reactive discovery buffers).

        Proactive protocols never buffer data, so the default is 0.  The
        packet-conservation monitor adds this to the in-network count: a
        packet parked in an AODV/DSR discovery buffer is alive, not leaked.
        """
        return 0

    # ---------------------------------------------------------------- sending

    def _send(self, neighbor: int, message: Any, n_routes: int = 1) -> None:
        """Send ``message`` to ``neighbor`` and account it, unless the link is
        down: detection lags the link, so a protocol may still believe in an
        adjacency the link layer has lost."""
        link = self.node.links.get(neighbor)
        if link is None or not link.up:
            return
        size = message.size_bytes
        self.node.send_control(neighbor, message, size, protocol=self.name)
        self._record_message(neighbor, n_routes, size_bytes=size)

    def _flood(self, message: Any, exclude: Optional[int] = None) -> None:
        """Send ``message`` to every up neighbor except ``exclude``."""
        node, size = self.node, message.size_bytes
        for nbr in node.up_neighbors():
            if nbr != exclude:
                node.send_control(nbr, message, size, protocol=self.name)
                self._record_message(nbr, 1, size_bytes=size)

    def _record_message(
        self,
        neighbor: int,
        n_routes: int,
        is_withdrawal: bool = False,
        size_bytes: int = 0,
    ) -> None:
        """Account one sent message for overhead metrics.

        ``size_bytes`` feeds the per-protocol byte counters in the
        observability layer: the same wire size the message was sent with.
        """
        self.messages_sent += 1
        self.routes_sent += n_routes
        bus = self.node.bus
        bus.counters.messages += 1
        if bus.wants_message:
            # Fields: (time, sender, receiver, protocol, n_routes,
            # is_withdrawal, size_bytes); tuple.__new__ skips the generated
            # NamedTuple __new__ on this per-message path.
            bus.publish(tuple.__new__(MessageRecord, (
                self.sim._now, self.node.id, neighbor, self.name,
                n_routes, is_withdrawal, size_bytes,
            )))


class SessionProtocol(RoutingProtocol):
    """A protocol whose neighbors talk over reliable in-order sessions (BGP's
    TCP, DUAL's RTP): one :class:`ReliableChannel` per open adjacency."""

    def __init__(self, node: Node, rng_streams: RngStreams, network: Network) -> None:
        super().__init__(node, rng_streams)
        self.network = network
        self._channels: dict[int, ReliableChannel] = {}
        #: The one bound method every session of this router delivers through.
        self._deliver = self._deliver_to

    def _open_session(self, neighbor: int) -> bool:
        """Open the session to ``neighbor``; False if it is already open."""
        if neighbor in self._channels:
            return False
        self._channels[neighbor] = ReliableChannel(
            self.sim, self.node.link_to(neighbor), self.node.id, self._deliver
        )
        return True

    def _close_session(self, neighbor: int) -> None:
        channel = self._channels.pop(neighbor, None)
        if channel is not None:
            channel.close()

    def _deliver_to(self, neighbor: int, payload: Any) -> None:
        # Sessions bypass Node.receive, so causal attribution has to happen
        # here, on the receiving protocol.
        peer = self.network.node(neighbor).protocol
        if peer is not None:
            peer.apply_message(payload, self.node.id)

    def _send_reliable(
        self, neighbor: int, message: Any, n_routes: int = 1, is_withdrawal: bool = False
    ) -> bool:
        """Send ``message`` over the session to ``neighbor`` and account it;
        False (nothing accounted) if there is no session or its link is down."""
        channel = self._channels.get(neighbor)
        size = message.size_bytes
        if channel is None or not channel.send(message, size):
            return False
        self._record_message(neighbor, n_routes, is_withdrawal, size)
        return True
