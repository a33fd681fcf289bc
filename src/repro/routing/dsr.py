"""DSR — Dynamic Source Routing (RFC 4728, simplified).

The second reactive protocol, and the one that stresses the harness hardest:
DSR routers keep **no FIB entries at all**.  Every data packet either carries
a full source route stamped by its origin (``Packet.route``) or sits in the
origin's send buffer while a Route Request floods outward accumulating the
path it travels.  Forwarding is therefore driven entirely by the
``Node.route_miss`` hook — at the origin it stamps routes from the cache, at
intermediate nodes it relays along the stamped route — and the fib-loop
monitor inspects stamped routes (via :meth:`source_route_loops`) instead of
walking FIBs.

Route cache: per-node set of full paths (self first).  Caching pulls from
every control message a node relays — RREQ accumulated records give reverse
paths, RREP routes give forward and reverse paths — and a Route Error
*poisons* every cached path using the broken link, at the detector, along
the error's way back, and at the origin.  ``promiscuous=True`` additionally
gleans paths from forwarded data packets (overhearing reduced to the on-path
case); it is **off by default** so the baseline matches the classic non-
promiscuous DSR the comparison papers configure.

Simplifications (docs/manet.md): replies come only from the request target
(no cache replies), broken packets are dropped rather than salvaged, and
links are assumed bidirectional (reverse of a discovered route is usable —
true for this simulator's symmetric links).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

from ..net.node import Node
from ..net.packet import CONTROL_HEADER_BYTES, Packet
from ..sim.rng import RngStreams
from ..sim.tracing import DropCause
from ..topology.graph import Topology
from .reactive import ReactiveProtocol

__all__ = ["DsrConfig", "DsrProtocol", "RouteRequest", "RouteReply", "RouteError"]

#: Bytes per node id carried in a DSR route record / source route.
ADDRESS_BYTES = 4


@dataclass(frozen=True)
class RouteRequest:
    """Flooded request; ``route`` is the path accumulated so far (origin first)."""

    origin: int
    req_id: int
    target: int
    route: tuple[int, ...]

    @property
    def size_bytes(self) -> int:
        return CONTROL_HEADER_BYTES + ADDRESS_BYTES * len(self.route)


@dataclass(frozen=True)
class RouteReply:
    """Unicast reply carrying the complete path origin -> target."""

    route: tuple[int, ...]

    @property
    def size_bytes(self) -> int:
        return CONTROL_HEADER_BYTES + ADDRESS_BYTES * len(self.route)


@dataclass(frozen=True)
class RouteError:
    """Broken-link notice walking back along ``route`` (origin ... detector)."""

    broken: tuple[int, int]
    route: tuple[int, ...]

    @property
    def size_bytes(self) -> int:
        return CONTROL_HEADER_BYTES + ADDRESS_BYTES * (len(self.route) + 2)


@dataclass(frozen=True)
class DsrConfig:
    """Discovery timing, cache and buffering knobs."""

    #: One discovery attempt's timeout before retrying.
    discovery_timeout: float = 2.8
    #: Additional attempts after the first flood.
    request_retries: int = 2
    #: Max data packets buffered per destination during discovery.
    buffer_limit: int = 64
    #: Glean paths from forwarded data packets (on-path overhearing).
    promiscuous: bool = False
    label: str = "dsr"

    def __post_init__(self) -> None:
        if self.discovery_timeout <= 0:
            raise ValueError("discovery_timeout must be positive")
        if self.request_retries < 0:
            raise ValueError("request_retries must be >= 0")
        if self.buffer_limit < 1:
            raise ValueError("buffer_limit must be >= 1")


class DsrProtocol(ReactiveProtocol):
    """Source routing from a per-node path cache; the FIB stays empty."""

    name = "dsr"

    def __init__(
        self,
        node: Node,
        rng_streams: RngStreams,
        config: Optional[DsrConfig] = None,
    ) -> None:
        self.config = config = config or DsrConfig()
        self.name = config.label
        super().__init__(
            node, rng_streams,
            config.discovery_timeout, config.request_retries, config.buffer_limit,
        )
        #: dest -> cached full paths (each starts with this node's id).
        self.cache: dict[int, set[tuple[int, ...]]] = {}
        self._req_id = 0
        self.cache_poisonings = 0
        node.route_miss = self._on_route_miss

    # --------------------------------------------------------------- lifecycle

    def start(self) -> None:
        pass  # purely reactive: nothing until traffic asks

    def warm_start(self, topology: Topology) -> None:
        pass  # converged steady state is an empty cache

    # ------------------------------------------------------------------ events

    def handle_message(self, payload: Any, from_node: int) -> None:
        if isinstance(payload, RouteRequest):
            self._handle_request(payload, from_node)
        elif isinstance(payload, RouteReply):
            self._handle_reply(payload, from_node)
        elif isinstance(payload, RouteError):
            self._handle_error(payload, from_node)
        else:
            raise TypeError(f"dsr got unexpected payload {type(payload).__name__}")

    def handle_link_down(self, neighbor: int) -> None:
        # Poison immediately rather than waiting to fail a send: the cache
        # must not offer paths through a link we already know is dead.
        self._purge_link(self.node.id, neighbor)

    # --------------------------------------------------------------- data path

    def _on_route_miss(self, packet: Packet) -> None:
        route = packet.route
        node_id = self.node.id
        if route is not None and node_id in route:
            index = route.index(node_id)
            if index < len(route) - 1:
                self._relay(packet, route, index)
                return
        if packet.src == node_id:
            self._originate(packet)
            return
        # A routeless transit packet: nothing we can do for it.
        self.node.drop(packet, DropCause.NO_ROUTE)

    def _originate(self, packet: Packet) -> None:
        path = self._best_path(packet.dst)
        if path is None:
            self._discover(packet)
            return
        packet.route = path
        self.node.transmit_to(packet, path[1])

    def _relay(self, packet: Packet, route: tuple[int, ...], index: int) -> None:
        next_hop = route[index + 1]
        link = self.node.links.get(next_hop)
        if link is None or not link.up:
            self._report_broken(route, index, next_hop)
            self.node.drop(packet, DropCause.NO_ROUTE)
            return
        if self.config.promiscuous:
            # On-path gleaning: a forwarder learns the route it relays.
            self._cache_path(route[index:])
            self._cache_path(tuple(reversed(route[: index + 1])))
        self.node.transmit_to(packet, next_hop)

    def _report_broken(self, route: tuple[int, ...], index: int, next_hop: int) -> None:
        self._purge_link(self.node.id, next_hop)
        if index > 0:
            error = RouteError(
                broken=(self.node.id, next_hop), route=route[: index + 1]
            )
            self._send(route[index - 1], error)

    def _resolved(self, dest: int) -> bool:
        return self._best_path(dest) is not None

    def _forward(self, packet: Packet) -> None:
        path = self._best_path(packet.dst)
        if path is None:
            self.node.drop(packet, DropCause.NO_ROUTE)
            return
        packet.route = path
        self.node.transmit_to(packet, path[1])

    # ----------------------------------------------------------- control plane

    def _send_request(self, target: int) -> None:
        self._req_id += 1
        request = RouteRequest(
            origin=self.node.id,
            req_id=self._req_id,
            target=target,
            route=(self.node.id,),
        )
        self._seen.add((request.origin, request.req_id))
        self._flood(request)

    def _handle_request(self, request: RouteRequest, from_node: int) -> None:
        node_id = self.node.id
        key = (request.origin, request.req_id)
        if key in self._seen or node_id in request.route:
            return
        self._seen.add(key)
        route = request.route + (node_id,)
        # The accumulated record, reversed, is a path back to the originator.
        self._cache_path(tuple(reversed(route)))
        if request.target == node_id:
            self._send(from_node, RouteReply(route=route))
        else:
            self._flood(replace(request, route=route), exclude=from_node)

    def _handle_reply(self, reply: RouteReply, from_node: int) -> None:
        route = reply.route
        node_id = self.node.id
        if node_id not in route:
            return  # mis-delivered; symmetric links make this unreachable
        index = route.index(node_id)
        self._cache_path(route[index:])
        self._cache_path(tuple(reversed(route[: index + 1])))
        if index == 0:
            self._release(route[-1])
        else:
            self._send(route[index - 1], reply)

    def _handle_error(self, error: RouteError, from_node: int) -> None:
        self._purge_link(*error.broken)
        route = error.route
        node_id = self.node.id
        if node_id not in route:
            return
        index = route.index(node_id)
        if index > 0:
            self._send(route[index - 1], error)

    # ------------------------------------------------------------------- cache

    def _cache_path(self, path: tuple[int, ...]) -> None:
        if len(path) < 2 or path[0] != self.node.id:
            return
        # Every prefix is itself a usable path to its endpoint.
        for end in range(2, len(path) + 1):
            prefix = path[:end]
            self.cache.setdefault(prefix[-1], set()).add(prefix)

    def _best_path(self, dest: int) -> Optional[tuple[int, ...]]:
        """Shortest cached path whose first hop is currently attached and up."""
        paths = self.cache.get(dest)
        while paths:
            best = min(paths, key=lambda p: (len(p), p))
            link = self.node.links.get(best[1])
            if link is not None and link.up:
                return best
            self._purge_link(self.node.id, best[1])
            paths = self.cache.get(dest)
        return None

    def _purge_link(self, u: int, v: int) -> None:
        """Cache poisoning: drop every path using link {u, v} in either order."""
        broken = {(u, v), (v, u)}
        removed = 0
        for dest in list(self.cache):
            paths = self.cache[dest]
            keep = {
                p for p in paths
                if not any((p[i], p[i + 1]) in broken for i in range(len(p) - 1))
            }
            removed += len(paths) - len(keep)
            if keep:
                self.cache[dest] = keep
            else:
                del self.cache[dest]
        if removed:
            self.cache_poisonings += 1

    # -------------------------------------------------------------- inspection

    def route_metric(self, dest: int) -> Optional[int]:
        if dest == self.node.id:
            return 0
        path = self._best_path(dest)
        return None if path is None else len(path) - 1

    def route_path(self, dest: int) -> Optional[tuple[int, ...]]:
        """The path this node would stamp on a packet to ``dest`` right now.

        Consumed by the validation layer (RIB consistency's chain walk runs
        over this instead of FIB next hops, which DSR never installs).
        """
        return self._best_path(dest)

    def source_route_loops(self) -> list[tuple[int, ...]]:
        """Cached paths that revisit a node — what the fib-loop monitor checks
        for DSR in place of walking (empty) FIBs."""
        return [
            p
            for paths in self.cache.values()
            for p in paths
            if len(set(p)) != len(p)
        ]
