"""Router/host node.

A :class:`Node` owns a FIB (``destination -> next hop``), its attached links,
at most one routing protocol, and any local applications (traffic sinks).
Forwarding follows the paper's §4 description exactly: as long as a packet's
TTL is positive and the router knows *some* next hop, the packet is forwarded
and the TTL decremented — regardless of whether routing has converged.

Drop accounting (``Node.drops``, per cause, data packets only; a run's
drop counts are :func:`~repro.metrics.counters.tally` snapshots of it):

* ``NO_ROUTE``     — FIB miss (the router is inside its path switch-over period)
* ``TTL_EXPIRED``  — TTL hit zero (transient forwarding loop)
* ``QUEUE_OVERFLOW`` / ``LINK_DOWN`` — charged by the link machinery

Hot-path notes: every deliver/forward/drop bumps the bus's always-on integer
counters, but full :class:`~repro.sim.tracing.PacketRecord` objects are only
constructed when the bus's ``wants_packet`` guard says someone is listening
(a flight recorder or a monitor; nothing in a plain run).  When they are,
records are built with ``tuple.__new__`` (they are NamedTuples), skipping
the generated ``__new__``'s extra Python call — at a flight-recorder-grade
record rate that call is the single largest instrumentation cost.  Transmission goes through a precomputed per-neighbor
dispatch table (``neighbor id -> channel.send``) so the FIB lookup resolves
straight to the outgoing channel without re-walking Link internals per packet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Protocol as TypingProtocol

from ..sim.engine import Simulator
from ..sim.tracing import DropCause, PacketRecord, RouteChangeRecord, TraceBus
from .packet import Packet
from .link import Link

_new = tuple.__new__

if TYPE_CHECKING:  # pragma: no cover
    from ..routing.base import RoutingProtocol

__all__ = ["Node", "PacketApp"]


class PacketApp(TypingProtocol):
    """Anything that consumes locally delivered data packets."""

    def on_packet(self, packet: Packet, node: "Node") -> None: ...


class Node:
    """One router (or stub host) in the simulated network."""

    __slots__ = (
        "sim",
        "id",
        "bus",
        "record_paths",
        "record_forwards",
        "links",
        "fib",
        "protocol",
        "apps",
        "delivered",
        "drops",
        "route_cause",
        "route_miss",
        "_tx",
    )

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        bus: TraceBus,
        record_paths: bool = False,
        record_forwards: bool = False,
    ) -> None:
        self.sim = sim
        self.id = node_id
        self.bus = bus
        self.record_paths = record_paths
        self.record_forwards = record_forwards
        self.links: dict[int, Link] = {}
        #: Dispatch table: neighbor id -> that link's channel.send for this end.
        self._tx: dict[int, Callable[[Packet], None]] = {}
        self.fib: dict[int, Optional[int]] = {}
        self.protocol: Optional["RoutingProtocol"] = None
        self.apps: list[PacketApp] = []
        # Counters (data packets only).
        self.delivered = 0
        self.drops: dict[DropCause, int] = {cause: 0 for cause in DropCause}
        #: Control-plane scope marker: while a protocol event is being
        #: applied (see ``RoutingProtocol.route_cause``), names the event so
        #: route-change records can attribute FIB flips causally.
        self.route_cause: Optional[tuple[str, Optional[int]]] = None
        #: Reactive-routing hook: when set, a data packet that misses the FIB
        #: is handed here (on-demand discovery, source-route forwarding)
        #: instead of being dropped.  ``None`` keeps the classic drop — the
        #: hook costs nothing on the FIB-hit fast path.
        self.route_miss: Optional[Callable[[Packet], None]] = None

    # ------------------------------------------------------------------ wiring

    def add_link(self, neighbor: int, link: Link) -> None:
        if neighbor in self.links:
            raise ValueError(f"node {self.id} already linked to {neighbor}")
        self.links[neighbor] = link
        self._tx[neighbor] = link.sender_from(self.id)
        link.deliver_to(self.id, self.receive)

    def neighbors(self) -> list[int]:
        """Directly connected neighbor ids, sorted for determinism."""
        return sorted(self.links)

    def up_neighbors(self) -> list[int]:
        """Neighbors whose connecting link is currently up."""
        return sorted(n for n, l in self.links.items() if l.up)

    def link_to(self, neighbor: int) -> Link:
        return self.links[neighbor]

    def attach_protocol(self, protocol: "RoutingProtocol") -> None:
        if self.protocol is not None:
            raise ValueError(f"node {self.id} already has a protocol")
        self.protocol = protocol

    def attach_app(self, app: PacketApp) -> None:
        self.apps.append(app)

    def close(self) -> None:
        """End the run: close the protocol and drop links, dispatch table,
        apps and the reactive hook (see :meth:`Network.close`)."""
        if self.protocol is not None:
            self.protocol.close()
            self.protocol = None
        self.links.clear()
        self._tx.clear()
        self.apps.clear()
        self.route_miss = None

    # ------------------------------------------------------------------- FIB

    def next_hop(self, dest: int) -> Optional[int]:
        """Current next hop toward ``dest`` (None = no route)."""
        return self.fib.get(dest)

    def set_next_hop(self, dest: int, next_hop: Optional[int]) -> None:
        """Install/replace the FIB entry, publishing a route-change record."""
        old = self.fib.get(dest)
        if old == next_hop:
            return
        if next_hop is None:
            self.fib.pop(dest, None)
        else:
            if next_hop not in self.links:
                raise ValueError(
                    f"node {self.id}: next hop {next_hop} is not a neighbor"
                )
            self.fib[dest] = next_hop
        bus = self.bus
        bus.counters.route_changes += 1
        if bus.wants_route:
            # Fields: (time, node, dest, old_next_hop, new_next_hop, cause).
            # sim._now skips the ``now`` property call — guarded record
            # construction is the one place that cost is measurable.
            bus.publish(_new(RouteChangeRecord, (
                self.sim._now, self.id, dest, old, next_hop, self.route_cause,
            )))

    # ------------------------------------------------------------- data plane

    def originate(self, packet: Packet) -> None:
        """Inject a locally generated data packet into the network."""
        if packet.kind != "data":
            raise ValueError("originate() is for data packets")
        packet.send_time = self.sim.now
        if self.record_paths:
            packet.hops.append(self.id)
        bus = self.bus
        bus.counters.sends += 1
        if bus.wants_packet:
            # Fields: (time, kind, packet_id, node, flow_id, ttl, cause, dst)
            bus.publish(_new(PacketRecord, (
                self.sim._now, "send", packet.packet_id, self.id,
                packet.flow_id, packet.ttl, None, packet.dst,
            )))
        if packet.dst == self.id:
            self._deliver_local(packet)
            return
        # FIB lookup straight to the outgoing channel; ``_tx`` has no None
        # key, so a FIB miss and a stale next hop both read as None.
        send = self._tx.get(self.fib.get(packet.dst))
        if send is None:
            self._miss(packet)
            return
        send(packet)

    def receive(self, packet: Packet, from_node: int) -> None:
        """Entry point for packets arriving off a link: control messages go
        to the protocol, data is delivered here or forwarded."""
        if packet.kind == "control":
            if self.protocol is not None:
                self.route_cause = ("message", from_node)
                try:
                    self.protocol.handle_message(packet.payload, from_node)
                finally:
                    self.route_cause = None
            return
        if packet.dst == self.id:
            self._deliver_local(packet)
            return
        packet.ttl -= 1
        if packet.ttl <= 0:
            self.drop(packet, DropCause.TTL_EXPIRED)
            return
        if self.record_paths:
            packet.hops.append(self.id)
        bus = self.bus
        bus.counters.forwards += 1
        if self.record_forwards and bus.wants_packet:
            bus.publish(_new(PacketRecord, (
                self.sim._now, "forward", packet.packet_id, self.id,
                packet.flow_id, packet.ttl, None, packet.dst,
            )))
        send = self._tx.get(self.fib.get(packet.dst))
        if send is None:
            self._miss(packet)
            return
        send(packet)

    def _miss(self, packet: Packet) -> None:
        """No usable next hop: hand the packet to the reactive-routing hook,
        or drop it as NO_ROUTE."""
        if self.route_miss is not None:
            self.route_miss(packet)
        else:
            self.drop(packet, DropCause.NO_ROUTE)

    def transmit_to(self, packet: Packet, next_hop: int) -> bool:
        """Push ``packet`` onto the channel toward ``next_hop`` directly.

        Used by reactive protocols to release buffered packets after route
        discovery and to forward along DSR source routes, bypassing the FIB.
        Returns False (and drops as NO_ROUTE) when ``next_hop`` is not
        currently attached.
        """
        send = self._tx.get(next_hop)
        if send is None:
            self.drop(packet, DropCause.NO_ROUTE)
            return False
        send(packet)
        return True

    def _deliver_local(self, packet: Packet) -> None:
        self.delivered += 1
        if self.record_paths:
            packet.hops.append(self.id)
        bus = self.bus
        bus.counters.delivers += 1
        if bus.wants_packet:
            bus.publish(_new(PacketRecord, (
                self.sim._now, "deliver", packet.packet_id, self.id,
                packet.flow_id, packet.ttl, None, packet.dst,
            )))
        for app in self.apps:
            app.on_packet(packet, self)

    def drop(self, packet: Packet, cause: DropCause) -> None:
        """Account a packet death at this node."""
        if packet.kind == "data":
            self.drops[cause] += 1
            bus = self.bus
            bus.counters.drops += 1
            if bus.wants_packet:
                bus.publish(_new(PacketRecord, (
                    self.sim._now, "drop", packet.packet_id, self.id,
                    packet.flow_id, packet.ttl, cause, packet.dst,
                )))

    # ---------------------------------------------------------- control plane

    def send_control(self, neighbor: int, payload: Any, size_bytes: int, protocol: str) -> None:
        """Send a routing-protocol message to a directly connected neighbor."""
        send = self._tx.get(neighbor)
        if send is None:
            raise ValueError(f"node {self.id}: {neighbor} is not a neighbor")
        packet = Packet(
            src=self.id,
            dst=neighbor,
            kind="control",
            ttl=1,
            size_bytes=size_bytes,
            flow_id=-1,
            payload=payload,
            protocol=protocol,
            send_time=self.sim.now,
        )
        send(packet)

    def on_link_down(self, neighbor: int) -> None:
        """Failure detection fired for the link to ``neighbor``."""
        if self.protocol is not None:
            self.route_cause = ("link_down", neighbor)
            try:
                self.protocol.handle_link_down(neighbor)
            finally:
                self.route_cause = None

    def on_link_up(self, neighbor: int) -> None:
        if self.protocol is not None:
            self.route_cause = ("link_up", neighbor)
            try:
                self.protocol.handle_link_up(neighbor)
            finally:
                self.route_cause = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.id} nbrs={self.neighbors()}>"
