"""Online invariant monitors.

Each monitor subscribes to the :class:`~repro.sim.tracing.TraceBus` per-kind
fast paths (or samples live network state on a virtual-time ticker) and
accumulates :class:`Violation` records.  A clean protocol implementation
produces zero violations on every scenario; a subtle bug — a broken split
horizon, a stale cache entry, an unguarded queue — trips at least one
monitor without any figure-level assertion having to notice.

Monitors are intentionally *redundant* with the aggregate metrics: they
re-derive what the collectors compute from an independent angle (per-packet
lifecycles, an offline SPF oracle) so that a bug in either layer shows up as
a disagreement.

The standard catalog (see ``docs/validation.md``):

* :class:`PacketConservationMonitor` — every injected data packet is
  delivered, dropped, or still physically inside the network at end of run;
  no packet terminates twice or appears from nowhere.
* :class:`TtlMonitor` — per-packet TTL strictly decreases hop by hop;
  ``TTL_EXPIRED`` drops happen exactly at TTL 0 and their count matches the
  per-node drop counters.
* :class:`QueueOccupancyMonitor` — sampled on a virtual-time ticker: no
  drop-tail queue ever exceeds its configured capacity.
* :class:`FibLoopMonitor` — for protocols that promise loop-freedom (RIP's
  split horizon with poison reverse, DUAL's feasibility condition), no
  forwarding loop may ever exist in the network-wide FIBs, on *any*
  destination, for any positive amount of virtual time.
* :class:`NoRouteAfterConvergenceMonitor` — once the network-wide routing
  convergence instant has passed (the last FIB change anywhere), no further
  ``NO_ROUTE`` drops may occur.
* :class:`RibConsistencyMonitor` — after the network quiesces, every node's
  route metrics and FIB next hops are diffed against a deterministic SPF
  oracle on the post-failure topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional

from ..routing.catalog import protocol_spec
from ..sim.tracing import DropCause, PacketRecord, RouteChangeRecord, TraceBus
from ..topology.graph import Adjacency, is_connected, shortest_path_tree, without_links

if TYPE_CHECKING:  # pragma: no cover
    from ..net.network import Network
    from ..sim.engine import Simulator
    from ..topology.graph import Topology

__all__ = [
    "Violation",
    "RunContext",
    "Monitor",
    "MonitorSuite",
    "ConvergenceSentinel",
    "PacketConservationMonitor",
    "TtlMonitor",
    "QueueOccupancyMonitor",
    "FibLoopMonitor",
    "NoRouteAfterConvergenceMonitor",
    "RibConsistencyMonitor",
]

@dataclass(frozen=True)
class Violation:
    """One invariant breach, attributed to the monitor that caught it."""

    monitor: str
    time: float
    detail: str

    def __str__(self) -> str:
        return f"[{self.monitor}] t={self.time:.3f}: {self.detail}"


@dataclass
class RunContext:
    """Everything a monitor may need about the scenario being validated."""

    sim: "Simulator"
    network: "Network"
    bus: TraceBus
    topology: "Topology"
    protocol: str
    #: Links failed during the run, as canonical (min, max) endpoint pairs.
    failed_links: tuple[tuple[int, int], ...] = ()
    detect_time: float = 0.0
    end_time: float = 0.0
    #: Distance-vector infinity: oracle costs at/above this are unreachable.
    infinity: Optional[int] = None
    #: Seconds of quiet (no FIB change) before ``end_time`` required before
    #: the RIB diff is meaningful; a still-churning network is skipped.
    #: Scenario wiring sets this from the protocol's catalogue row.
    settle_margin: float = 3.0
    #: Destinations that carry data traffic.  Reactive protocols (AODV/DSR)
    #: are judged per active destination only: nodes with no traffic toward
    #: a destination legitimately hold no route to it.
    active_dests: frozenset[int] = frozenset()
    #: Strict reactive cost check: on a static single-failure scenario a
    #: reactive flood discovers a shortest path, so active-destination
    #: metrics must equal the oracle exactly.  Under churn, link restores
    #: legitimately leave reactive routes longer than optimal (they never
    #: re-optimize a working route), so churn wiring relaxes this to
    #: validity + loop-freedom + metric >= oracle.
    reactive_strict: bool = True
    #: Shared routing-activity tracker, installed by :class:`MonitorSuite`.
    sentinel: Optional["ConvergenceSentinel"] = None


class Monitor:
    """Base class: collects violations; subclasses hook attach/finalize."""

    name = "monitor"

    def __init__(self) -> None:
        self.violations: list[Violation] = []
        #: Reason the monitor declined to judge this run (None = it judged).
        self.skipped: Optional[str] = None

    def attach(self, ctx: RunContext) -> None:
        """Subscribe to the bus / arm samplers.  Called before the run."""

    def finalize(self, ctx: RunContext) -> None:
        """End-of-run checks.  Called after the simulation completes."""

    def _flag(self, time: float, detail: str) -> None:
        self.violations.append(Violation(self.name, time, detail))


class ConvergenceSentinel(Monitor):
    """Tracks the last instant any *routing state* changed, anywhere.

    FIB-change records alone under-report convergence activity: BGP path
    lengths can ripple through the network without any next hop changing,
    and a distance-vector metric can count up while its next hop stays
    put — in both cases ``set_next_hop`` is a no-op and no route record is
    published.  The sentinel therefore combines two signals:

    * every :class:`RouteChangeRecord` on the bus, and
    * a virtual-time ticker that samples every node's ``route_metric``
      table and timestamps any difference from the previous sample.

    Other monitors read :attr:`last_activity` to decide whether the network
    has genuinely quiesced.  The sentinel itself never flags violations.
    """

    name = "convergence-sentinel"

    def __init__(self, sample_interval: float = 1.0) -> None:
        super().__init__()
        self.sample_interval = sample_interval
        self.last_activity: Optional[float] = None
        self._snapshot: Optional[dict[int, dict[int, Optional[int]]]] = None

    def attach(self, ctx: RunContext) -> None:
        self._ctx = ctx
        ctx.bus.subscribe("route", self._on_route)
        ctx.sim.schedule(self.sample_interval, self._sample)

    def _on_route(self, record: RouteChangeRecord) -> None:
        self.last_activity = record.time

    def _metrics(self) -> dict[int, dict[int, Optional[int]]]:
        nodes = sorted(self._ctx.topology.nodes)
        if protocol_spec(self._ctx.protocol).reactive and self._ctx.active_dests:
            # Reactive tables churn with every discovery for every flow; the
            # convergence question is only about destinations with traffic.
            nodes = sorted(self._ctx.active_dests)
        out: dict[int, dict[int, Optional[int]]] = {}
        for node in self._ctx.network.iter_nodes():
            if node.protocol is None:
                continue
            out[node.id] = {
                dest: node.protocol.route_metric(dest)
                for dest in nodes
                if dest != node.id
            }
        return out

    def _observe(self) -> None:
        current = self._metrics()
        if self._snapshot is not None and current != self._snapshot:
            # The change happened somewhere in (previous tick, now]; the
            # conservative timestamp is now.
            self.last_activity = self._ctx.sim.now
        self._snapshot = current

    def _sample(self) -> None:
        self._observe()
        if self._ctx.sim.now + self.sample_interval <= self._ctx.end_time:
            self._ctx.sim.schedule(self.sample_interval, self._sample)

    def finalize(self, ctx: RunContext) -> None:
        # Catch churn that landed after the final tick.
        self._observe()


def _quiesced(ctx: RunContext, own_last_change: Optional[float]) -> bool:
    """Has routing activity been quiet for at least ``ctx.settle_margin``?"""
    last = own_last_change
    if ctx.sentinel is not None:
        sl = ctx.sentinel.last_activity
        if sl is not None and (last is None or sl > last):
            last = sl
    return last is None or ctx.end_time - last >= ctx.settle_margin


class PacketConservationMonitor(Monitor):
    """Every sent data packet is delivered, dropped, or still in flight.

    Subscribes to the packet fast path and tracks per-packet lifecycles by
    id: a packet must be sent exactly once before it terminates, may
    terminate at most once, and at end of run the outstanding population
    must equal the number of data packets physically inside the network
    (queued, serializing, or propagating on some link).
    """

    name = "packet-conservation"

    def __init__(self) -> None:
        super().__init__()
        self.sent: set[int] = set()
        self.terminated: dict[int, str] = {}

    def attach(self, ctx: RunContext) -> None:
        ctx.bus.subscribe("packet", self._on_packet)

    def _on_packet(self, record: PacketRecord) -> None:
        pid = record.packet_id
        if record.kind == "send":
            if pid in self.sent:
                self._flag(record.time, f"packet {pid} sent twice")
            self.sent.add(pid)
        elif record.kind in ("deliver", "drop"):
            if pid not in self.sent:
                self._flag(
                    record.time, f"packet {pid} {record.kind}ed without a send"
                )
            if pid in self.terminated:
                self._flag(
                    record.time,
                    f"packet {pid} {record.kind}ed after already being "
                    f"{self.terminated[pid]}ed",
                )
            self.terminated[pid] = record.kind

    def finalize(self, ctx: RunContext) -> None:
        outstanding = len(self.sent) - len(set(self.sent) & set(self.terminated))
        in_network = sum(
            link.occupancy(data_only=True) for link in ctx.network.iter_links()
        )
        # Reactive protocols park originated packets in discovery buffers;
        # those are alive but not on any link.
        buffered = sum(
            node.protocol.pending_data_packets()
            for node in ctx.network.iter_nodes()
            if node.protocol is not None
        )
        if outstanding != in_network + buffered:
            self._flag(
                ctx.sim.now,
                f"{outstanding} packet(s) unaccounted for but {in_network} "
                f"data packet(s) physically in the network and {buffered} "
                f"buffered awaiting routes",
            )


class TtlMonitor(Monitor):
    """TTL strictly decreases along every packet's journey.

    Needs forward records (``record_forwards`` on the network) for the
    hop-by-hop view; without them it still checks the send/deliver/drop
    endpoints.  Also cross-checks the ``TTL_EXPIRED`` drop population
    against the per-node drop counters, so a loop that the tracing layer
    sees but the counters miss (or vice versa) is a violation.
    """

    name = "ttl"

    def __init__(self) -> None:
        super().__init__()
        self._last_ttl: dict[int, int] = {}
        self.ttl_drops = 0

    def attach(self, ctx: RunContext) -> None:
        ctx.bus.subscribe("packet", self._on_packet)

    def _on_packet(self, record: PacketRecord) -> None:
        pid = record.packet_id
        if record.kind == "send":
            self._last_ttl[pid] = record.ttl
            return
        last = self._last_ttl.get(pid)
        if record.kind == "forward":
            if last is not None and record.ttl >= last:
                self._flag(
                    record.time,
                    f"packet {pid} forwarded at node {record.node} with TTL "
                    f"{record.ttl} >= previous {last}",
                )
            self._last_ttl[pid] = record.ttl
        elif record.kind == "deliver":
            if last is not None and record.ttl > last:
                self._flag(
                    record.time,
                    f"packet {pid} delivered with TTL {record.ttl} > last "
                    f"observed {last}",
                )
        elif record.kind == "drop" and record.cause is DropCause.TTL_EXPIRED:
            self.ttl_drops += 1
            if record.ttl > 0:
                self._flag(
                    record.time,
                    f"packet {pid} dropped TTL_EXPIRED with TTL {record.ttl} > 0",
                )

    def finalize(self, ctx: RunContext) -> None:
        counted = ctx.network.total_drops(DropCause.TTL_EXPIRED)
        if counted != self.ttl_drops:
            self._flag(
                ctx.sim.now,
                f"loop-drop accounting mismatch: trace saw {self.ttl_drops} "
                f"TTL_EXPIRED drops, node counters say {counted}",
            )


class QueueOccupancyMonitor(Monitor):
    """No drop-tail queue may ever hold more than its capacity.

    The queue enforces this at push time by construction, so the monitor is
    a tripwire against regressions that bypass ``DropTailQueue.push`` (or
    corrupt the deque): it samples every channel on a virtual-time ticker.
    """

    name = "queue-occupancy"

    def __init__(self, sample_interval: float = 1.0) -> None:
        super().__init__()
        self.sample_interval = sample_interval
        self.samples = 0

    def attach(self, ctx: RunContext) -> None:
        self._ctx = ctx
        ctx.sim.schedule(self.sample_interval, self._sample)

    def _sample(self) -> None:
        ctx = self._ctx
        self.samples += 1
        capacity = None
        for link in ctx.network.iter_links():
            a, b = link.endpoints
            capacity = link.queue_capacity
            for end in (a, b):
                depth = link.queue_length(end)
                if depth > capacity:
                    self._flag(
                        ctx.sim.now,
                        f"queue {end}->{link.other_end(end)} holds {depth} "
                        f"> capacity {capacity}",
                    )
        if ctx.sim.now + self.sample_interval <= ctx.end_time:
            ctx.sim.schedule(self.sample_interval, self._sample)


class NoRouteAfterConvergenceMonitor(Monitor):
    """No ``NO_ROUTE`` drops after the network-wide convergence instant.

    Tracks the last FIB change anywhere (the measured routing-convergence
    time) and every NO_ROUTE drop; a drop strictly after the last change
    means a router kept a FIB hole past convergence — which, on a topology
    the oracle says is still fully connected, is a protocol bug.
    """

    name = "no-route-after-convergence"

    def __init__(self) -> None:
        super().__init__()
        self.last_route_change: Optional[float] = None
        self.no_route_drops: list[tuple[float, int]] = []

    def attach(self, ctx: RunContext) -> None:
        ctx.bus.subscribe("route", self._on_route)
        ctx.bus.subscribe("packet", self._on_packet)

    def _on_route(self, record: RouteChangeRecord) -> None:
        self.last_route_change = record.time

    def _on_packet(self, record: PacketRecord) -> None:
        if record.kind == "drop" and record.cause is DropCause.NO_ROUTE:
            self.no_route_drops.append((record.time, record.node))

    def finalize(self, ctx: RunContext) -> None:
        if not _oracle_fully_connected(ctx):
            self.skipped = "post-failure topology not fully connected"
            return
        if not _quiesced(ctx, self.last_route_change):
            # Quiet-but-not-converged networks (pending MRAI, damping) may
            # legitimately still be dropping; only judge settled runs.
            self.skipped = "network still churning at end of run"
            return
        # Convergence instant: the last FIB change, or — for routing state
        # the bus never sees (DSR's cache lives outside any FIB) — the
        # sentinel's last observed activity.
        candidates = [self.last_route_change]
        if ctx.sentinel is not None:
            candidates.append(ctx.sentinel.last_activity)
        known = [t for t in candidates if t is not None]
        converged_at = max(known) if known else ctx.detect_time
        for time, node in self.no_route_drops:
            if time > converged_at:
                self._flag(
                    time,
                    f"NO_ROUTE drop at node {node} after network convergence "
                    f"(last FIB change at t={converged_at:.3f})",
                )


class FibLoopMonitor(Monitor):
    """No forwarding loop may ever exist in a loop-free protocol's FIBs.

    Maintains a live network-wide FIB view per destination (seeded from the
    warm-started network, updated from every route record) and re-walks the
    next-hop chain from each changed node.  A cycle that persists for any
    positive amount of virtual time is a violation; a cycle created and
    destroyed at the same instant (two FIB updates at one timestamp) is
    ignored, since no packet can be forwarded in a zero-length window.

    This is the monitor that catches split-horizon bugs: a broken poison
    reverse lets a neighbor hand a router its own route back after a
    failure, forming a two-node loop on some destination — usually one that
    carries no traffic, so no packet-level metric ever notices.
    """

    name = "fib-loop"

    def __init__(self, sample_interval: float = 1.0) -> None:
        super().__init__()
        self.sample_interval = sample_interval
        #: dest -> {node -> next_hop}
        self._views: dict[int, dict[int, Optional[int]]] = {}
        #: dest -> (formation time, description) for a loop awaiting
        #: confirmation that it outlived its formation instant.
        self._pending: dict[int, tuple[float, str]] = {}
        self.loops_confirmed = 0
        self._source_routed = False
        self._seen_paths: set[tuple[int, tuple[int, ...]]] = set()

    def attach(self, ctx: RunContext) -> None:
        spec = protocol_spec(ctx.protocol)
        if not spec.loop_free:
            self.skipped = (
                f"protocol {ctx.protocol!r} makes no loop-freedom promise"
            )
            return
        if spec.source_routed:
            # Source-routed protocols keep FIBs empty; the loop surface is
            # the per-node path cache, sampled on a virtual-time ticker.
            self._source_routed = True
            self._ctx = ctx
            ctx.sim.schedule(self.sample_interval, self._sample_source_routes)
            return
        self.follow({node.id: node.fib for node in ctx.network.iter_nodes()}, ctx.bus)

    def follow(
        self, fibs: Mapping[int, Mapping[int, Optional[int]]], bus: TraceBus
    ) -> None:
        """Start from ``fibs`` (node -> {dest: next hop}) and judge every
        route record ``bus`` publishes from now on — live, or replayed."""
        for node, fib in fibs.items():
            for dest, nh in fib.items():
                self._views.setdefault(dest, {})[node] = nh
        bus.subscribe("route", self._on_route)

    def _sample_source_routes(self) -> None:
        ctx = self._ctx
        self._check_source_routes(ctx)
        if ctx.sim.now + self.sample_interval <= ctx.end_time:
            ctx.sim.schedule(self.sample_interval, self._sample_source_routes)

    def _check_source_routes(self, ctx: RunContext) -> None:
        for node in ctx.network.iter_nodes():
            loops = getattr(node.protocol, "source_route_loops", None)
            if loops is None:
                continue
            for path in loops():
                key = (node.id, path)
                if key in self._seen_paths:
                    continue
                self._seen_paths.add(key)
                self.loops_confirmed += 1
                self._flag(
                    ctx.sim.now,
                    f"source route {'->'.join(map(str, path))} cached at "
                    f"node {node.id} revisits a node",
                )

    def _on_route(self, record: RouteChangeRecord) -> None:
        view = self._views.setdefault(record.dest, {})
        if record.new_next_hop is None:
            view.pop(record.node, None)
        else:
            view[record.node] = record.new_next_hop
        cycle = self._find_cycle(view, record.node)
        pending = self._pending.get(record.dest)
        if cycle is not None:
            if pending is None:
                detail = (
                    f"forwarding loop {'->'.join(map(str, cycle))} for dest "
                    f"{record.dest}"
                )
                self._pending[record.dest] = (record.time, detail)
            return
        if pending is not None:
            formed_at, detail = pending
            del self._pending[record.dest]
            if record.time > formed_at:
                # The loop survived past its formation instant: real packets
                # could have circulated.
                self.loops_confirmed += 1
                self._flag(formed_at, detail)

    @staticmethod
    def _find_cycle(
        view: dict[int, Optional[int]], start: int
    ) -> Optional[list[int]]:
        path = [start]
        seen = {start}
        node = start
        for _ in range(len(view) + 1):
            nxt = view.get(node)
            if nxt is None:
                return None
            path.append(nxt)
            if nxt in seen:
                return path
            seen.add(nxt)
            node = nxt
        return path  # walk exceeded the view size: necessarily cyclic

    def finalize(self, ctx: RunContext) -> None:
        if self._source_routed:
            self._check_source_routes(ctx)
            return
        for dest, (formed_at, detail) in sorted(self._pending.items()):
            if ctx.end_time > formed_at:
                self.loops_confirmed += 1
                self._flag(formed_at, detail + " (still present at end of run)")
        self._pending.clear()


class RibConsistencyMonitor(Monitor):
    """Converged routes must match an offline SPF oracle.

    After the run, re-derives shortest-path costs on the post-failure
    topology (deterministic Dijkstra, same tie-break the protocols use) and
    diffs every node's ``route_metric`` and FIB next hop against it:

    * reachable destinations must carry the oracle's exact cost;
    * the installed next hop must lie on *some* shortest path
      (``dist(nh, d) + w(n, nh) == dist(n, d)``) — the loop-freedom
      condition;
    * oracle-unreachable destinations must have no route.

    The diff only makes sense on a quiesced network: if any FIB changed
    within ``ctx.settle_margin`` seconds of the end of the run, the monitor
    reports itself skipped instead of producing noise.
    """

    name = "rib-consistency"

    def __init__(self) -> None:
        super().__init__()
        self.last_route_change: Optional[float] = None
        self.nodes_checked = 0

    def attach(self, ctx: RunContext) -> None:
        ctx.bus.subscribe("route", self._on_route)

    def _on_route(self, record: RouteChangeRecord) -> None:
        self.last_route_change = record.time

    def finalize(self, ctx: RunContext) -> None:
        spec = protocol_spec(ctx.protocol)
        if spec.reactive:
            self._finalize_reactive(ctx)
            return
        if not spec.converges:
            self.skipped = f"protocol {ctx.protocol!r} makes no convergence promise"
            return
        if not _quiesced(ctx, self.last_route_change):
            self.skipped = (
                f"network still churning at end of run (last FIB change "
                f"t={self.last_route_change}, end t={ctx.end_time:.3f})"
            )
            return
        graph = _post_failure_graph(ctx)
        now = ctx.sim.now
        for node in ctx.network.iter_nodes():
            if node.protocol is None:
                continue
            self.nodes_checked += 1
            costs = self._dist_cache(graph, node.id)
            for dest in sorted(ctx.topology.nodes):
                if dest == node.id:
                    continue
                expected = costs.get(dest)
                if expected is not None and ctx.infinity is not None:
                    if expected >= ctx.infinity:
                        expected = None
                actual = node.protocol.route_metric(dest)
                if expected is None:
                    if actual is not None:
                        self._flag(
                            now,
                            f"node {node.id}: dest {dest} unreachable per "
                            f"oracle but protocol reports metric {actual}",
                        )
                    continue
                if actual != expected:
                    self._flag(
                        now,
                        f"node {node.id}: dest {dest} metric {actual} != "
                        f"oracle cost {expected}",
                    )
                nh = node.next_hop(dest)
                if nh is None:
                    self._flag(
                        now,
                        f"node {node.id}: dest {dest} reachable (cost "
                        f"{expected}) but FIB has no next hop",
                    )
                    continue
                link = node.links.get(nh)
                if link is None or not link.up:
                    self._flag(
                        now,
                        f"node {node.id}: dest {dest} next hop {nh} is not a "
                        f"live neighbor",
                    )
                    continue
                w = link.spec.cost
                d_nd = self._dist_cache(graph, nh).get(dest)
                if d_nd is None or d_nd + w != expected:
                    self._flag(
                        now,
                        f"node {node.id}: dest {dest} next hop {nh} is off "
                        f"every shortest path (dist({nh},{dest})="
                        f"{d_nd} + w={w} != {expected})",
                    )

    def _finalize_reactive(self, ctx: RunContext) -> None:
        """Reactive convergence: judge only destinations with traffic.

        For each active destination, every node *holding* a route to it must
        hold a usable one: the forwarding chain (FIB next hops for AODV, the
        cached source route for DSR) must reach the destination over live
        links without revisiting a node, and a route to an oracle-unreachable
        destination is a stale blackhole.  Under ``ctx.reactive_strict``
        (static single-failure scenarios, where a discovery flood provably
        finds a shortest path) metrics must also equal the oracle cost
        exactly; under churn they need only never beat it.  Nodes without a
        route are never flagged — on-demand protocols owe routes only to
        traffic they have seen.
        """
        if not ctx.active_dests:
            self.skipped = "no active destinations to judge reactively"
            return
        if not _quiesced(ctx, self.last_route_change):
            self.skipped = (
                f"network still churning at end of run (last FIB change "
                f"t={self.last_route_change}, end t={ctx.end_time:.3f})"
            )
            return
        graph = _post_failure_graph(ctx)
        now = ctx.sim.now
        for dest in sorted(ctx.active_dests):
            for node in ctx.network.iter_nodes():
                if node.protocol is None or node.id == dest:
                    continue
                metric = node.protocol.route_metric(dest)
                if metric is None:
                    continue
                self.nodes_checked += 1
                expected = self._dist_cache(graph, node.id).get(dest)
                if expected is None:
                    self._flag(
                        now,
                        f"node {node.id}: active dest {dest} unreachable per "
                        f"oracle but a stale route (metric {metric}) survives",
                    )
                    continue
                if ctx.reactive_strict:
                    if metric != expected:
                        self._flag(
                            now,
                            f"node {node.id}: active dest {dest} metric "
                            f"{metric} != oracle cost {expected}",
                        )
                elif metric < expected:
                    self._flag(
                        now,
                        f"node {node.id}: active dest {dest} metric {metric} "
                        f"beats the oracle's shortest cost {expected}",
                    )
                self._check_chain(ctx, node, dest, now)

    def _check_chain(self, ctx: RunContext, node, dest: int, now: float) -> None:
        """Walk the actual forwarding chain from ``node`` toward ``dest``."""
        path_fn = getattr(node.protocol, "route_path", None)
        if path_fn is not None:
            path = path_fn(dest)
            if path is None:
                return
            if len(set(path)) != len(path):
                self._flag(
                    now,
                    f"node {node.id}: source route to {dest} revisits a node "
                    f"({'->'.join(map(str, path))})",
                )
                return
            if path[-1] != dest:
                self._flag(
                    now,
                    f"node {node.id}: source route to {dest} ends at "
                    f"{path[-1]}",
                )
                return
            for i in range(len(path) - 1):
                hop = ctx.network.node(path[i]).links.get(path[i + 1])
                if hop is None or not hop.up:
                    self._flag(
                        now,
                        f"node {node.id}: source route to {dest} uses dead "
                        f"link {path[i]}-{path[i + 1]}",
                    )
                    return
            return
        current = node
        seen = {node.id}
        while True:
            nh = current.next_hop(dest)
            if nh is None:
                self._flag(
                    now,
                    f"node {node.id}: route to active dest {dest} dead-ends "
                    f"at node {current.id} (no next hop)",
                )
                return
            link = current.links.get(nh)
            if link is None or not link.up:
                self._flag(
                    now,
                    f"node {node.id}: route to active dest {dest} crosses "
                    f"dead link {current.id}-{nh}",
                )
                return
            if nh == dest:
                return
            if nh in seen:
                self._flag(
                    now,
                    f"node {node.id}: forwarding chain to active dest {dest} "
                    f"loops at node {nh}",
                )
                return
            seen.add(nh)
            current = ctx.network.node(nh)

    def _dist_cache(self, graph: Adjacency, src: int) -> dict[int, int]:
        cache = getattr(self, "_dists", None)
        if cache is None:
            cache = self._dists = {}
        dists = cache.get(src)
        if dists is None:
            dists = cache[src] = shortest_path_tree(graph, src)[1]
        return dists


def _post_failure_graph(ctx: RunContext) -> Adjacency:
    """Adjacency of the topology with every failed link removed."""
    return without_links(
        ctx.topology.adjacency(),
        (link.endpoints for link in ctx.network.iter_links() if not link.up),
    )


def _oracle_fully_connected(ctx: RunContext) -> bool:
    return is_connected(_post_failure_graph(ctx))


class MonitorSuite:
    """A bundle of monitors attached and finalized as one unit.

    ``run_scenario`` drives the lifecycle: :meth:`attach` before the
    simulation (subscribing each monitor to the bus), :meth:`finalize`
    after it (end-of-run checks).  The suite keeps its :class:`RunContext`
    so callers — the differential oracle, tests — can inspect the live
    network after the run.
    """

    def __init__(self, monitors: Optional[list[Monitor]] = None) -> None:
        self.monitors = monitors if monitors is not None else self.default_monitors()
        self.context: Optional[RunContext] = None

    @staticmethod
    def default_monitors() -> list[Monitor]:
        # The sentinel must come first: its finalize() takes the last
        # routing-state sample the quiesce checks below depend on.
        return [
            ConvergenceSentinel(),
            PacketConservationMonitor(),
            TtlMonitor(),
            QueueOccupancyMonitor(),
            FibLoopMonitor(),
            NoRouteAfterConvergenceMonitor(),
            RibConsistencyMonitor(),
        ]

    def attach(self, ctx: RunContext) -> None:
        self.context = ctx
        for monitor in self.monitors:
            if isinstance(monitor, ConvergenceSentinel):
                ctx.sentinel = monitor
        for monitor in self.monitors:
            monitor.attach(ctx)

    def finalize(self) -> list[Violation]:
        assert self.context is not None, "attach() must run before finalize()"
        for monitor in self.monitors:
            monitor.finalize(self.context)
        return self.violations

    @property
    def violations(self) -> list[Violation]:
        return [v for m in self.monitors for v in m.violations]

    @property
    def skips(self) -> dict[str, str]:
        return {m.name: m.skipped for m in self.monitors if m.skipped}

