"""Routing protocol interface and shared plumbing.

Every protocol instance is bound to one node.  The node calls
:meth:`handle_message` for arriving control payloads and
:meth:`handle_link_down` / :meth:`handle_link_up` when failure detection
fires; the protocol drives the node's FIB via ``node.set_next_hop``.

``warm_start`` installs the protocol's exact converged state for a topology,
letting experiments skip the multi-minute cold-start period; integration
tests verify warm state equals what cold convergence reaches.
"""

from __future__ import annotations

import abc
import random
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from ..net.node import Node
from ..sim.engine import Simulator
from ..sim.rng import RngStreams
from ..sim.tracing import MessageRecord
from ..topology.graph import Topology

__all__ = ["RoutingProtocol"]


class RoutingProtocol(abc.ABC):
    """Base class for the routing protocols under study."""

    #: Human-readable protocol name ("rip", "dbf", "bgp", ...); set by subclass.
    name: str = "abstract"

    def __init__(self, node: Node, rng_streams: RngStreams) -> None:
        self.node = node
        self.sim: Simulator = node.sim
        self.rng: random.Random = rng_streams.stream(f"{self.name}.node{node.id}")
        self.messages_sent = 0
        self.routes_sent = 0
        node.attach_protocol(self)

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

    # ---------------------------------------------------------------- helpers

    def _record_message(
        self,
        neighbor: int,
        n_routes: int,
        is_withdrawal: bool = False,
        size_bytes: int = 0,
    ) -> None:
        """Account one sent message for overhead metrics.

        ``size_bytes`` feeds the per-protocol byte counters in the
        observability layer; callers pass the same wire size they gave
        ``node.send_control``.
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
