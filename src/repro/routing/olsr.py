"""OLSR — Optimized Link State Routing (RFC 3626, simplified).

The proactive member of the MANET trio.  Every node periodically HELLOs its
neighbors (carrying its neighbor list and its chosen MultiPoint Relays) and
the nodes *selected* as MPRs periodically originate Topology Control (TC)
messages listing their selectors.  TCs flood network-wide, but — the "O" in
OLSR — a node retransmits a TC only when the sender selected it as MPR, so
the flood rides the MPR backbone instead of hitting every edge.  Routes are
hop-count Dijkstra over the partial topology the TCs reveal: symmetric 1-hop
links plus one edge per (TC origin, selector) pair.  On unit-cost graphs that
partial view still contains a shortest path to every destination — MPR
coverage guarantees it — which is why OLSR joins the harness's convergent
set and is held to strict SPF-cost agreement at quiescence.

Simplifications (docs/manet.md): neighbor liveness comes from the
simulator's link-layer failure detection (``handle_link_down``), not HELLO
hold timers, so there is no detection lag to model twice; link hysteresis
and multiple-interface handling are dropped; willingness is uniform.  MPR
selection is the RFC's greedy heuristic with the deterministic smallest-id
tie-break used across this repo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional

from ..net.node import Node
from ..net.packet import CONTROL_HEADER_BYTES
from ..sim.rng import RngStreams
from ..sim.timers import JitteredInterval, PeriodicTimer
from ..topology.graph import Topology, per_topology, shortest_path_tree
from .base import RoutingProtocol

__all__ = ["OlsrConfig", "OlsrProtocol", "OlsrHello", "OlsrTc", "select_mprs"]

#: Bytes per neighbor entry in a HELLO / per selector in a TC.
NEIGHBOR_ENTRY_BYTES = 4


@dataclass(frozen=True)
class OlsrHello:
    """Link-local beacon: who I hear, who I consider symmetric, my MPRs."""

    origin: int
    #: (neighbor id, "sym" | "heard") pairs.
    neighbors: tuple[tuple[int, str], ...]
    mprs: tuple[int, ...]

    @property
    def size_bytes(self) -> int:
        return CONTROL_HEADER_BYTES + NEIGHBOR_ENTRY_BYTES * (
            len(self.neighbors) + len(self.mprs)
        )


@dataclass(frozen=True)
class OlsrTc:
    """Flooded topology declaration: the origin's MPR selectors."""

    origin: int
    seq: int
    selectors: tuple[int, ...]

    @property
    def size_bytes(self) -> int:
        return CONTROL_HEADER_BYTES + NEIGHBOR_ENTRY_BYTES * len(self.selectors)


@dataclass(frozen=True)
class OlsrConfig:
    """Beacon cadence (RFC 3626 defaults) and labeling."""

    hello_interval: float = 2.0
    hello_jitter: float = 0.2
    tc_interval: float = 5.0
    tc_jitter: float = 0.5
    label: str = "olsr"

    def __post_init__(self) -> None:
        if self.hello_interval <= 0 or self.tc_interval <= 0:
            raise ValueError("intervals must be positive")
        if not (0 <= self.hello_jitter <= self.hello_interval):
            raise ValueError("hello_jitter out of range")
        if not (0 <= self.tc_jitter <= self.tc_interval):
            raise ValueError("tc_jitter out of range")


def select_mprs(
    self_id: int,
    sym_neighbors: Iterable[int],
    two_hop: Mapping[int, frozenset[int] | set[int]],
) -> set[int]:
    """RFC 3626 §8.3.1 greedy MPR heuristic, deterministic tie-break.

    Picks a subset of ``sym_neighbors`` covering every strict 2-hop neighbor:
    first the sole providers (neighbors that are the only path to some 2-hop
    node), then repeatedly the neighbor covering the most still-uncovered
    2-hop nodes (smallest id on ties).
    """
    neighbors = set(sym_neighbors)
    reach = {
        n: set(two_hop.get(n, ())) - neighbors - {self_id, n} for n in neighbors
    }
    uncovered = set().union(*reach.values()) if reach else set()
    mprs: set[int] = set()
    # Sole providers are forced picks.
    for target in sorted(uncovered):
        providers = [n for n in sorted(neighbors) if target in reach[n]]
        if len(providers) == 1:
            mprs.add(providers[0])
    for m in mprs:
        uncovered -= reach[m]
    while uncovered:
        best = min(
            (n for n in neighbors - mprs),
            key=lambda n: (-len(reach[n] & uncovered), n),
            default=None,
        )
        if best is None or not (reach[best] & uncovered):
            break  # remaining 2-hop nodes are not coverable right now
        mprs.add(best)
        uncovered -= reach[best]
    return mprs


@per_topology
def _mpr_choices(topology: Topology) -> tuple[dict[int, set[int]], dict[int, frozenset[int]]]:
    """``(mprs, selectors)`` per node at convergence.  Everyone runs the same
    deterministic heuristic, so who selected whom can be reconstructed without
    exchanging a single message, once for all routers of a topology."""
    adj = topology.adjacency()
    mprs = {n: select_mprs(n, adj[n], {m: adj[m] for m in adj[n]}) for n in adj}
    return mprs, {n: frozenset(m for m in adj[n] if n in mprs[m]) for n in adj}


class OlsrProtocol(RoutingProtocol):
    """Proactive link state over an MPR flooding backbone."""

    name = "olsr"

    def __init__(
        self,
        node: Node,
        rng_streams: RngStreams,
        config: Optional[OlsrConfig] = None,
    ) -> None:
        self.config = config or OlsrConfig()
        self.name = self.config.label
        super().__init__(node, rng_streams)
        #: neighbor -> "sym" | "heard" (up links only).
        self._nbr: dict[int, str] = {}
        #: neighbor -> its symmetric neighbor set (from its HELLOs).
        self._two_hop: dict[int, set[int]] = {}
        #: Our chosen relays, and the neighbors that chose us.
        self.mprs: set[int] = set()
        self.mpr_selectors: set[int] = set()
        self._tc_seq = 0
        #: TC table: origin -> (seq, selector set, expires_at).  Entries are
        #: refreshed by every TC period; an origin that stops advertising
        #: (lost all its selectors, or left the network) ages out after
        #: TOP_HOLD_TIME = 3 TC intervals instead of haunting the graph.
        self._topo: dict[int, tuple[int, frozenset[int], float]] = {}
        #: No ``_topo`` entry expires before this (a lower bound), so the
        #: aging sweep scans the table only once it lies in the past.
        self._next_expiry = math.inf
        self._metrics: dict[int, int] = {}
        #: Set where a routing input changed since the last ``_recompute`` (a
        #: neighbor's status or 2-hop set, a TC selector set, an aged-out TC),
        #: and where an MPR input changed since the last selection.
        self._inputs_changed = True
        self._mprs_stale = False
        #: (edge set, symmetric neighbors) the FIB was last computed from.
        self._computed_from: Optional[tuple[set, set]] = None
        self.recomputes_skipped = 0
        #: Keep originating (empty, retracting) TCs until this time even if
        #: we have no selectors left — remote nodes must learn our old edges
        #: are gone without waiting a full TOP_HOLD_TIME for expiry.
        self._retract_until = 0.0
        self.tc_forwards = 0
        self._hello_timer = PeriodicTimer(
            self.sim,
            JitteredInterval(self.config.hello_interval, self.config.hello_jitter, self.rng),
            self._send_hello,
        )
        self._tc_timer = PeriodicTimer(
            self.sim,
            JitteredInterval(self.config.tc_interval, self.config.tc_jitter, self.rng),
            self._originate_tc,
        )

    # --------------------------------------------------------------- lifecycle

    def start(self) -> None:
        for nbr in self.node.up_neighbors():
            self._nbr[nbr] = "heard"
        self._hello_timer.start(self.rng.uniform(0, self.config.hello_interval))
        self._tc_timer.start(self.rng.uniform(0, self.config.tc_interval))
        self._send_hello()

    def warm_start(self, topology: Topology) -> None:
        """Install the state cold HELLO/TC exchange converges to."""
        me = self.node.id
        adj = topology.adjacency()
        all_mprs, all_selectors = _mpr_choices(topology)
        for nbr in adj.get(me, ()):
            self._nbr[nbr] = "sym"
            self._two_hop[nbr] = set(adj[nbr]) - {me}
        self.mprs = set(all_mprs.get(me, ()))
        self.mpr_selectors = set(all_selectors.get(me, ()))
        for origin, selectors in all_selectors.items():
            if selectors:
                self._store_tc(origin, 1, selectors)
        self._tc_seq = 1
        if self.mpr_selectors:
            self._retract_until = self.sim.now + self._hold_time()
        self._recompute()
        self._hello_timer.start()
        self._tc_timer.start()

    def close(self) -> None:
        self._hello_timer.stop()  # repeating timers and their handles are cycles
        self._tc_timer.stop()
        super().close()

    # ------------------------------------------------------------------ events

    def handle_message(self, payload: Any, from_node: int) -> None:
        if isinstance(payload, OlsrHello):
            self._handle_hello(payload, from_node)
        elif isinstance(payload, OlsrTc):
            self._handle_tc(payload, from_node)
        else:
            raise TypeError(f"olsr got unexpected payload {type(payload).__name__}")

    def handle_link_down(self, neighbor: int) -> None:
        self._neighbor_changed(self._nbr.pop(neighbor, None), None)
        self._two_hop.pop(neighbor, None)
        self.mpr_selectors.discard(neighbor)
        self._refresh_mprs()
        self._recompute()

    def handle_link_up(self, neighbor: int) -> None:
        # May demote a neighbor whose HELLOs made it symmetric already.
        self._neighbor_changed(self._nbr.get(neighbor), "heard")
        self._nbr[neighbor] = "heard"
        # Beacon immediately so the new adjacency turns symmetric within one
        # exchange instead of one full period.
        self._send_hello()

    # ----------------------------------------------------------- control plane

    def _send_hello(self) -> None:
        self._flood(OlsrHello(
            origin=self.node.id,
            neighbors=tuple(sorted(self._nbr.items())),
            mprs=tuple(sorted(self.mprs)),
        ))

    def _handle_hello(self, hello: OlsrHello, from_node: int) -> None:
        link = self.node.links.get(from_node)
        if link is None or not link.up:
            return
        me = self.node.id
        listed = dict(hello.neighbors)
        # They hear us -> the link is symmetric from our side.
        status = "sym" if me in listed else "heard"
        two_hop = {n for n, s in hello.neighbors if s == "sym" and n != me}
        was = self._nbr.get(from_node)
        if was != status or self._two_hop.get(from_node) != two_hop:
            self._nbr[from_node] = status
            self._two_hop[from_node] = two_hop
            self._neighbor_changed(was, status)
        if me in hello.mprs:
            self.mpr_selectors.add(from_node)
        else:
            self.mpr_selectors.discard(from_node)
        self._refresh_mprs()
        self._recompute()

    def _neighbor_changed(self, was: Optional[str], status: Optional[str]) -> None:
        """A neighbor's entry moved from status ``was`` to ``status``.  Only
        symmetric neighbors (and their 2-hop sets) feed the MPR selection
        and the routing set."""
        if was == "sym" or status == "sym":
            self._inputs_changed = self._mprs_stale = True

    def _refresh_mprs(self) -> None:
        """Re-run MPR selection if its inputs moved since the last run."""
        if not self._mprs_stale:
            return
        self._mprs_stale = False
        sym = [n for n, status in self._nbr.items() if status == "sym"]
        self.mprs = select_mprs(self.node.id, sym, self._two_hop)

    def _originate_tc(self) -> None:
        if not self.mpr_selectors and self.sim.now >= self._retract_until:
            return  # only selected relays (or recently-retired ones) advertise
        if self.mpr_selectors:
            self._retract_until = self.sim.now + self._hold_time()
        self._tc_seq += 1
        tc = OlsrTc(
            origin=self.node.id,
            seq=self._tc_seq,
            selectors=tuple(sorted(self.mpr_selectors)),
        )
        self._store_tc(self.node.id, self._tc_seq, frozenset(self.mpr_selectors))
        self._flood(tc)

    def _hold_time(self) -> float:
        """TC validity (RFC 3626 TOP_HOLD_TIME): three advertisement periods."""
        return 3.0 * self.config.tc_interval

    def _store_tc(self, origin: int, seq: int, selectors: frozenset[int]) -> None:
        """Record ``origin``'s TC for one hold time.  A newer seq with the
        same selectors is a refresh: it changes no routing input."""
        known = self._topo.get(origin)
        if known is None or known[1] != selectors:
            self._inputs_changed = True
        expires_at = self.sim.now + self._hold_time()
        self._topo[origin] = (seq, selectors, expires_at)
        self._next_expiry = min(self._next_expiry, expires_at)

    def _expire_tcs(self, now: float) -> None:
        """Age out every TC entry whose hold time has passed by ``now``."""
        expired = [origin for origin, entry in self._topo.items() if entry[2] < now]
        for origin in expired:
            del self._topo[origin]
        if expired:
            self._inputs_changed = True
        self._next_expiry = min((entry[2] for entry in self._topo.values()), default=math.inf)

    def _handle_tc(self, tc: OlsrTc, from_node: int) -> None:
        known = self._topo.get(tc.origin)
        if known is not None and known[0] >= tc.seq:
            return  # duplicate or stale: the flood stops here
        self._store_tc(tc.origin, tc.seq, frozenset(tc.selectors))
        # MPR-only forwarding: relay solely on behalf of our selectors.
        if from_node in self.mpr_selectors:
            self.tc_forwards += 1
            self._flood(tc, exclude=from_node)
        self._recompute()

    # ---------------------------------------------------------------- routing

    def _edges(self) -> set[tuple[int, int]]:
        """The routing set as canonical (low, high) pairs."""
        edges: set[tuple[int, int]] = set()
        me = self.node.id
        for nbr, status in self._nbr.items():
            if status == "sym":
                edges.add((me, nbr) if me < nbr else (nbr, me))
                # RFC 3626 §10: the 2-hop neighborhood from HELLOs is part
                # of the routing set — TCs only cover the MPR backbone, and
                # a node that selects no MPRs appears in no TC at all.
                for two in self._two_hop.get(nbr, ()):
                    edges.add((nbr, two) if nbr < two else (two, nbr))
        for origin, (_, selectors, _) in self._topo.items():
            for s in selectors:
                edges.add((origin, s) if origin < s else (s, origin))
        return edges

    def _recompute(self) -> None:
        # Most HELLOs and TCs only refresh what is known; then the tree and
        # the FIB the last run derived from the same inputs still stand.  A
        # change can also cancel out (a neighbor drops to "heard" and back),
        # which the comparison with the last run's inputs catches.
        # Aging runs at every call, skipped or not: ``_handle_tc``'s
        # stale-seq check reads the swept table, so an entry still held past
        # its expiry would turn away a TC that should be accepted.
        now = self.sim.now
        if self._next_expiry < now:
            self._expire_tcs(now)
        if not self._inputs_changed:
            self.recomputes_skipped += 1
            return
        self._inputs_changed = False
        edges = self._edges()
        sym = {n for n, status in self._nbr.items() if status == "sym"}
        if (edges, sym) == self._computed_from:
            self.recomputes_skipped += 1
            return
        self._computed_from = edges, sym
        adj: dict[int, dict[int, int]] = {self.node.id: {}}
        for a, b in edges:
            adj.setdefault(a, {})[b] = 1
            adj.setdefault(b, {})[a] = 1
        paths, _ = shortest_path_tree(adj, self.node.id)
        new_metrics: dict[int, int] = {}
        for dest, path in paths.items():
            if dest == self.node.id:
                continue
            # A path through the TC topology may start with an edge we can't
            # actually use yet (asymmetric or down from our side); only
            # install routes whose first hop is a live symmetric neighbor.
            first = path[1]
            if first not in sym:
                continue
            new_metrics[dest] = len(path) - 1
            self.node.set_next_hop(dest, first)
        for dest in set(self._metrics) - set(new_metrics):
            self.node.set_next_hop(dest, None)
        self._metrics = new_metrics

    # -------------------------------------------------------------- inspection

    def route_metric(self, dest: int) -> Optional[int]:
        if dest == self.node.id:
            return 0
        return self._metrics.get(dest)
