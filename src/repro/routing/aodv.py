"""AODV — Ad hoc On-demand Distance Vector routing (RFC 3561).

The first *reactive* protocol in the study: routes are built only when data
needs them.  A data packet that misses the FIB is handed to the protocol via
``Node.route_miss``; the origin buffers it, floods a Route Request (RREQ)
carrying its own fresh sequence number, and releases the buffer when a Route
Reply (RREP) walks back along the reverse path installing forward routes.
Link loss invalidates every route using the dead next hop and pushes a Route
Error (RERR) to the route's *precursors* — the upstream neighbors known to be
using it — so stale-route blackholes die quickly.

Simplifications, all noted in docs/manet.md:

* **Destination-only replies** (RFC 3561 'D' flag always set): intermediate
  nodes never answer from their own tables, which keeps discovery outcomes
  deterministic and makes the sequence-number invariant easy to state.
* **Link-layer feedback** (RFC §6.4 alternative to HELLO): the simulator's
  failure detection calls ``handle_link_down`` directly, so no HELLO traffic
  is generated and ``active_route_timeout`` defaults to infinity.  A finite
  timeout is supported (routes quietly expire) and unit-tested.
* **No expanding-ring search**: every discovery attempt is a network-wide
  flood; retries use binary exponential backoff.

Loop freedom comes from the RFC's sequence-number rule: a route is replaced
only by a strictly fresher one (higher destination sequence number) or an
equally fresh, strictly shorter one — the invariant the Hypothesis property
test in tests/routing/test_manet_properties.py hammers on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Optional

from ..net.node import Node
from ..net.packet import CONTROL_HEADER_BYTES, Packet
from ..sim.rng import RngStreams
from ..sim.timers import OneShotTimer
from ..sim.tracing import DropCause
from ..topology.graph import Topology
from .reactive import ReactiveProtocol

__all__ = ["AodvConfig", "AodvProtocol", "Rreq", "Rrep", "Rerr"]

#: Wire sizes per RFC 3561 message formats.
RREQ_BYTES = 24
RREP_BYTES = 20
RERR_DEST_BYTES = 8


@dataclass(frozen=True)
class Rreq:
    """Route Request, flooded origin -> everyone."""

    origin: int
    rreq_id: int
    dst: int
    origin_seq: int
    dest_seq: int
    hop_count: int

    @property
    def size_bytes(self) -> int:
        return RREQ_BYTES


@dataclass(frozen=True)
class Rrep:
    """Route Reply, unicast destination -> origin along reverse routes."""

    origin: int  #: the RREQ originator this reply is headed for
    dst: int  #: the destination the reply describes a route to
    dest_seq: int
    hop_count: int

    @property
    def size_bytes(self) -> int:
        return RREP_BYTES


@dataclass(frozen=True)
class Rerr:
    """Route Error: (dest, fresh seq) pairs now unreachable via the sender."""

    unreachable: tuple[tuple[int, int], ...]

    @property
    def size_bytes(self) -> int:
        return CONTROL_HEADER_BYTES + RERR_DEST_BYTES * len(self.unreachable)


@dataclass(frozen=True)
class AodvConfig:
    """Discovery timing and buffering knobs."""

    #: One discovery attempt's timeout (RFC NET_TRAVERSAL_TIME).
    path_discovery_time: float = 2.8
    #: Additional attempts after the first flood (RFC RREQ_RETRIES).
    rreq_retries: int = 2
    #: Route lifetime from installation.  Infinite by default: with
    #: link-layer feedback (our failure detection) RFC §6.4 permits routes
    #: to live until the link breaks.
    active_route_timeout: float = math.inf
    #: Max data packets buffered per destination during discovery.
    buffer_limit: int = 64
    label: str = "aodv"

    def __post_init__(self) -> None:
        if self.path_discovery_time <= 0:
            raise ValueError("path_discovery_time must be positive")
        if self.rreq_retries < 0:
            raise ValueError("rreq_retries must be >= 0")
        if self.active_route_timeout <= 0:
            raise ValueError("active_route_timeout must be positive")
        if self.buffer_limit < 1:
            raise ValueError("buffer_limit must be >= 1")


class _Route:
    """One AODV routing-table entry (the FIB mirrors only valid ones)."""

    __slots__ = ("next_hop", "hop_count", "seq", "valid", "precursors", "installed_at")

    def __init__(
        self, next_hop: int, hop_count: int, seq: int, installed_at: float
    ) -> None:
        self.next_hop = next_hop
        self.hop_count = hop_count
        self.seq = seq
        self.valid = True
        #: Upstream neighbors forwarding through us for this destination.
        self.precursors: set[int] = set()
        self.installed_at = installed_at


class AodvProtocol(ReactiveProtocol):
    """On-demand distance vector routing with sequence-numbered routes."""

    name = "aodv"

    def __init__(
        self,
        node: Node,
        rng_streams: RngStreams,
        config: Optional[AodvConfig] = None,
    ) -> None:
        self.config = config = config or AodvConfig()
        self.name = config.label
        super().__init__(
            node, rng_streams,
            config.path_discovery_time, config.rreq_retries, config.buffer_limit,
        )
        #: Own destination sequence number — never decreases (loop freedom).
        self.seq = 0
        self._rreq_id = 0
        self.routes: dict[int, _Route] = {}
        self._expiry_timer = OneShotTimer(self.sim, self._purge_expired)
        node.route_miss = self._on_route_miss

    # --------------------------------------------------------------- lifecycle

    def start(self) -> None:
        self._arm_expiry()

    def warm_start(self, topology: Topology) -> None:
        # Reactive: converged steady state is an *empty* table — routes exist
        # only while traffic wants them.  Nothing to install.
        self._arm_expiry()

    def _arm_expiry(self) -> None:
        timeout = self.config.active_route_timeout
        if math.isfinite(timeout):
            self._expiry_timer.start(timeout / 2)

    # ------------------------------------------------------------------ events

    def handle_message(self, payload: Any, from_node: int) -> None:
        if isinstance(payload, Rreq):
            self._handle_rreq(payload, from_node)
        elif isinstance(payload, Rrep):
            self._handle_rrep(payload, from_node)
        elif isinstance(payload, Rerr):
            self._handle_rerr(payload, from_node)
        else:
            raise TypeError(f"aodv got unexpected payload {type(payload).__name__}")

    def handle_link_down(self, neighbor: int) -> None:
        affected: list[tuple[int, int, set[int]]] = []
        for dest, route in self.routes.items():
            if route.valid and route.next_hop == neighbor:
                route.valid = False
                route.seq += 1  # RFC §6.11: bump so stale copies lose
                self.node.set_next_hop(dest, None)
                affected.append((dest, route.seq, set(route.precursors)))
                route.precursors.clear()
        if affected:
            self._propagate_rerr(affected)

    # --------------------------------------------------------------- data path

    def _on_route_miss(self, packet: Packet) -> None:
        if packet.src != self.node.id:
            # Mid-path FIB miss (route expired/invalidated under the packet):
            # RFC §6.11 — drop and leave repair to the origin's next discovery.
            self.node.drop(packet, DropCause.NO_ROUTE)
            return
        self._discover(packet)

    def _resolved(self, dest: int) -> bool:
        route = self.routes.get(dest)
        return route is not None and route.valid

    def _forward(self, packet: Packet) -> None:
        route = self.routes.get(packet.dst)
        if route is None or not route.valid:
            self.node.drop(packet, DropCause.NO_ROUTE)
        else:
            self.node.transmit_to(packet, route.next_hop)

    # ----------------------------------------------------------- control plane

    def _send_request(self, dest: int) -> None:
        self.seq += 1
        self._rreq_id += 1
        known = self.routes.get(dest)
        rreq = Rreq(
            origin=self.node.id,
            rreq_id=self._rreq_id,
            dst=dest,
            origin_seq=self.seq,
            dest_seq=known.seq if known is not None else 0,
            hop_count=0,
        )
        self._seen.add((rreq.origin, rreq.rreq_id))
        self._flood(rreq)

    def _handle_rreq(self, rreq: Rreq, from_node: int) -> None:
        key = (rreq.origin, rreq.rreq_id)
        if key in self._seen or rreq.origin == self.node.id:
            return
        self._seen.add(key)
        # Reverse route back to the originator rides in on every RREQ.
        self._maybe_update_route(rreq.origin, from_node, rreq.hop_count + 1, rreq.origin_seq)
        if rreq.dst == self.node.id:
            # Destination answers with a sequence number at least as fresh as
            # anything the network has attributed to it (monotonic by max()).
            self.seq = max(self.seq + 1, rreq.dest_seq)
            rrep = Rrep(origin=rreq.origin, dst=self.node.id, dest_seq=self.seq, hop_count=0)
            self._send(from_node, rrep)
        else:
            self._flood(replace(rreq, hop_count=rreq.hop_count + 1), exclude=from_node)

    def _handle_rrep(self, rrep: Rrep, from_node: int) -> None:
        self._maybe_update_route(rrep.dst, from_node, rrep.hop_count + 1, rrep.dest_seq)
        if rrep.origin == self.node.id:
            self._release(rrep.dst)
            return
        reverse = self.routes.get(rrep.origin)
        if reverse is None or not reverse.valid:
            return  # reverse route evaporated; the origin's retry recovers
        self._send(reverse.next_hop, replace(rrep, hop_count=rrep.hop_count + 1))
        forward = self.routes.get(rrep.dst)
        if forward is not None and forward.valid:
            forward.precursors.add(reverse.next_hop)
        reverse.precursors.add(from_node)

    def _handle_rerr(self, rerr: Rerr, from_node: int) -> None:
        affected: list[tuple[int, int, set[int]]] = []
        for dest, seq in rerr.unreachable:
            route = self.routes.get(dest)
            if route is None or not route.valid or route.next_hop != from_node:
                continue
            route.valid = False
            route.seq = max(route.seq, seq)
            self.node.set_next_hop(dest, None)
            affected.append((dest, route.seq, set(route.precursors)))
            route.precursors.clear()
        if affected:
            self._propagate_rerr(affected)

    def _propagate_rerr(self, affected: list[tuple[int, int, set[int]]]) -> None:
        """Send one RERR per precursor, listing the dests it was using."""
        per_precursor: dict[int, list[tuple[int, int]]] = {}
        for dest, seq, precursors in affected:
            for p in precursors:
                per_precursor.setdefault(p, []).append((dest, seq))
        for p in sorted(per_precursor):
            self._send(p, Rerr(unreachable=tuple(sorted(per_precursor[p]))))

    # ---------------------------------------------------------------- routing

    def _maybe_update_route(
        self, dest: int, next_hop: int, hop_count: int, seq: int
    ) -> bool:
        """RFC 3561 §6.2 route-update rule: fresher seq wins; same-seq shorter
        wins; an invalid route is replaced by anything at least as fresh."""
        if dest == self.node.id:
            return False
        route = self.routes.get(dest)
        if route is not None:
            if seq < route.seq:
                return False
            if seq == route.seq and route.valid and hop_count >= route.hop_count:
                return False
        new = _Route(next_hop, hop_count, seq, self.sim.now)
        if route is not None:
            new.precursors = route.precursors
        self.routes[dest] = new
        self.node.set_next_hop(dest, next_hop)
        if dest in self._pending:
            self._release(dest)
        return True

    def _purge_expired(self) -> None:
        timeout = self.config.active_route_timeout
        now = self.sim.now
        with self.route_cause("expiry", None):
            for dest, route in self.routes.items():
                if route.valid and now - route.installed_at > timeout:
                    route.valid = False
                    route.seq += 1
                    route.precursors.clear()
                    self.node.set_next_hop(dest, None)
        self._expiry_timer.start(timeout / 2)

    # -------------------------------------------------------------- inspection

    def route_metric(self, dest: int) -> Optional[int]:
        if dest == self.node.id:
            return 0
        route = self.routes.get(dest)
        if route is None or not route.valid:
            return None
        return route.hop_count
