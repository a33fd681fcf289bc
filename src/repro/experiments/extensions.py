"""Future-work experiments (paper §6), implemented.

The paper closes with three extensions it leaves open; all three are built
here on the same substrate and harness:

* :func:`run_multiflow_scenario` — multiple sender/receiver pairs and
  multiple (optionally overlapping-in-time) link failures;
* :func:`run_transport_scenario` — end-to-end reliable-transport (TCP-like)
  performance through a convergence event;
* :func:`run_random_topology_scenario` — the single-flow experiment on a
  connected random regular graph, to check that the regular-mesh results are
  not lattice artifacts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from ..metrics.counters import DropCounter
from ..net.dynamics import LinkScheduler
from ..net.network import Network
from ..sim.engine import Simulator
from ..sim.rng import RngStreams
from ..sim.tracing import TraceBus
from ..topology.generators import attach_host, random_regular
from ..topology.graph import Topology
from ..topology.mesh import regular_mesh
from ..traffic.cbr import CbrSource
from ..traffic.flows import FlowSpec
from ..traffic.sink import PacketSink
from ..traffic.transport import ReliableReceiver, ReliableSender, TransportConfig, TransportStats
from .config import ExperimentConfig
from .scenario import make_protocol_factory

__all__ = [
    "FlowOutcome",
    "MultiFlowResult",
    "run_multiflow_scenario",
    "TransportResult",
    "run_transport_scenario",
    "transport_with_baseline",
    "NodeFailureResult",
    "run_node_failure_scenario",
    "RepairResult",
    "run_repair_scenario",
    "run_random_topology_scenario",
]


# --------------------------------------------------------------- multi-flow


@dataclass
class FlowOutcome:
    """Per-flow delivery in a multi-flow run."""

    flow_id: int
    sender: int
    receiver: int
    sent: int
    delivered: int

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.sent if self.sent else 0.0


@dataclass
class MultiFlowResult:
    """Outcome of a multi-flow, multi-failure experiment."""

    protocol: str
    degree: int
    seed: int
    failed_links: list[tuple[int, int]]
    flows: list[FlowOutcome] = field(default_factory=list)
    drops_no_route: int = 0
    drops_ttl: int = 0

    @property
    def total_sent(self) -> int:
        return sum(f.sent for f in self.flows)

    @property
    def total_delivered(self) -> int:
        return sum(f.delivered for f in self.flows)

    @property
    def delivery_ratio(self) -> float:
        return self.total_delivered / self.total_sent if self.total_sent else 0.0

    @property
    def worst_flow_ratio(self) -> float:
        return min((f.delivery_ratio for f in self.flows), default=0.0)


def _build_network(
    protocol: str,
    topo: Topology,
    rng_streams: RngStreams,
    config: ExperimentConfig,
) -> tuple[Simulator, Network]:
    sim = Simulator()
    bus = TraceBus(keep_routes=False)
    network = Network(sim, topo, bus, queue_capacity=config.queue_capacity)
    network.attach_protocols(
        make_protocol_factory(protocol, network, rng_streams, topo, config)
    )
    for node in network.iter_nodes():
        assert node.protocol is not None
        node.protocol.warm_start(topo)
    return sim, network


def run_multiflow_scenario(
    protocol: str,
    degree: int,
    seed: int,
    config: Optional[ExperimentConfig] = None,
    n_flows: int = 3,
    n_failures: int = 2,
    failure_spacing: float = 5.0,
) -> MultiFlowResult:
    """Several concurrent flows, several staggered on-path link failures.

    Flow i's sender attaches to a random first-row router and its receiver to
    a random last-row router (distinct hosts).  The first failure hits flow
    0's path at ``config.fail_time``; each subsequent failure hits a later
    flow's (current pre-failure) path ``failure_spacing`` seconds apart, so
    convergence periods overlap.
    """
    config = config or ExperimentConfig.quick()
    if n_flows < 1 or n_failures < 1:
        raise ValueError("need at least one flow and one failure")
    if n_failures > n_flows:
        raise ValueError("at most one failure per flow's path")
    rng_streams = RngStreams(seed)
    rng = rng_streams.stream("multiflow")

    topo = regular_mesh(config.rows, config.cols, degree)
    pairs: list[tuple[int, int]] = []
    for _ in range(n_flows):
        sender = attach_host(topo, rng.randrange(0, config.cols))
        receiver = attach_host(
            topo, (config.rows - 1) * config.cols + rng.randrange(0, config.cols)
        )
        pairs.append((sender, receiver))

    # Choose one mesh link on each targeted flow's shortest path; reject
    # duplicates so failures are distinct.
    failed: list[tuple[int, int]] = []
    for i in range(n_failures):
        sender, receiver = pairs[i]
        path = topo.shortest_path(sender, receiver)
        assert path is not None
        candidates = [
            (path[j], path[j + 1])
            for j in range(1, len(path) - 2)
            if (min(path[j], path[j + 1]), max(path[j], path[j + 1]))
            not in {(min(a, b), max(a, b)) for a, b in failed}
        ]
        if candidates:
            failed.append(rng.choice(candidates))

    sim, network = _build_network(protocol, topo, rng_streams, config)
    drop_counter = DropCounter(network.bus, window_start=config.fail_time)

    sinks: list[PacketSink] = []
    sources: list[CbrSource] = []
    for flow_id, (sender, receiver) in enumerate(pairs, start=1):
        sink = PacketSink(flow_id=flow_id, ttl_at_send=config.ttl)
        network.node(receiver).attach_app(sink)
        sinks.append(sink)
        spec = FlowSpec(
            flow_id=flow_id,
            src=sender,
            dst=receiver,
            rate_pps=config.rate_pps,
            start=config.traffic_start,
            stop=config.end_time,
            packet_bytes=config.packet_bytes,
            ttl=config.ttl,
        )
        source = CbrSource(sim, network, spec)
        source.start()
        sources.append(source)

    injector = LinkScheduler(sim, network, detection_delay=config.detection_delay)
    for i, (a, b) in enumerate(failed):
        injector.fail_link(a, b, at=config.fail_time + i * failure_spacing)

    sim.run(until=config.end_time)

    result = MultiFlowResult(
        protocol=protocol,
        degree=degree,
        seed=seed,
        failed_links=failed,
        drops_no_route=drop_counter.no_route,
        drops_ttl=drop_counter.ttl_expired,
    )
    for flow_id, ((sender, receiver), source, sink) in enumerate(
        zip(pairs, sources, sinks), start=1
    ):
        result.flows.append(
            FlowOutcome(
                flow_id=flow_id,
                sender=sender,
                receiver=receiver,
                sent=source.sent,
                delivered=sink.stats.delivered,
            )
        )
    return result


# ---------------------------------------------------------------- transport


@dataclass
class TransportResult:
    """End-to-end reliable-transfer outcome through a convergence event."""

    protocol: str
    degree: int
    seed: int
    failed_link: tuple[int, int]
    stats: TransportStats
    #: Transfer time for the same byte count on the unbroken network.
    baseline_completion: Optional[float] = None

    @property
    def stall_penalty(self) -> Optional[float]:
        """Extra seconds versus the failure-free baseline."""
        if self.stats.completed_at is None or self.baseline_completion is None:
            return None
        return self.stats.completed_at - self.baseline_completion


def run_transport_scenario(
    protocol: str,
    degree: int,
    seed: int,
    config: Optional[ExperimentConfig] = None,
    total_segments: int = 2000,
    transport: Optional[TransportConfig] = None,
    inject_failure: bool = True,
) -> TransportResult:
    """One reliable transfer across the mesh, with one on-path link failure.

    The transfer starts at ``config.traffic_start``; the failure fires at
    ``config.fail_time`` like the paper's CBR experiment.  The run lasts
    until the transfer completes (or the configured horizon expires).
    """
    config = config or ExperimentConfig.quick()
    transport = transport or TransportConfig()
    rng_streams = RngStreams(seed)
    rng = rng_streams.stream("scenario")

    topo = regular_mesh(config.rows, config.cols, degree)
    sender = attach_host(topo, rng.randrange(0, config.cols))
    receiver = attach_host(
        topo, (config.rows - 1) * config.cols + rng.randrange(0, config.cols)
    )
    path = topo.shortest_path(sender, receiver)
    assert path is not None
    mesh_edges = [
        (path[i], path[i + 1])
        for i in range(1, len(path) - 2)
    ]
    failed = rng.choice(mesh_edges)

    sim, network = _build_network(protocol, topo, rng_streams, config)
    ReliableReceiver(network, receiver, sender, flow_id=1, config=transport)
    tx = ReliableSender(
        sim, network, sender, receiver, flow_id=1,
        total_segments=total_segments, config=transport,
    )
    sim.schedule_at(config.traffic_start, tx.start)
    if inject_failure:
        injector = LinkScheduler(sim, network, detection_delay=config.detection_delay)
        injector.fail_link(failed[0], failed[1], at=config.fail_time)

    horizon = config.end_time + 120.0
    while sim.now < horizon and not tx.done:
        sim.run(until=min(horizon, sim.now + 10.0))
    return TransportResult(
        protocol=protocol,
        degree=degree,
        seed=seed,
        failed_link=failed,
        stats=tx.stats,
    )


def transport_with_baseline(
    protocol: str,
    degree: int,
    seed: int,
    config: Optional[ExperimentConfig] = None,
    total_segments: int = 2000,
    transport: Optional[TransportConfig] = None,
) -> TransportResult:
    """Failure run plus a failure-free baseline for the stall penalty."""
    result = run_transport_scenario(
        protocol, degree, seed, config, total_segments, transport, inject_failure=True
    )
    baseline = run_transport_scenario(
        protocol, degree, seed, config, total_segments, transport, inject_failure=False
    )
    result.baseline_completion = baseline.stats.completed_at
    return result


# -------------------------------------------------------------------- repair


@dataclass
class RepairResult:
    """Outcome of a fail-then-repair cycle."""

    protocol: str
    degree: int
    seed: int
    failed_link: tuple[int, int]
    sent: int
    delivered: int
    drops_total: int
    #: Seconds after the repaired link is re-detected until the
    #: sender->receiver path is again of pre-failure (shortest) length
    #: (None = not within the window).  Tie-keeping protocols (RIP, DUAL)
    #: legitimately settle on an equal-cost path other than the original.
    restoration_convergence: Optional[float]
    back_on_shortest_path: bool

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.sent if self.sent else 0.0


def run_repair_scenario(
    protocol: str,
    degree: int,
    seed: int,
    config: Optional[ExperimentConfig] = None,
    repair_after: float = 20.0,
) -> RepairResult:
    """Fail a link on the live path, then bring it back.

    Measures the *restoration* side of convergence the paper leaves open:
    after repair, routing should migrate back to the original (shorter)
    path; the restoration convergence time is how long that takes once the
    endpoints re-detect the link.
    """
    from ..metrics.convergence import ConvergenceTracker

    config = config or ExperimentConfig.quick()
    rng_streams = RngStreams(seed)
    rng = rng_streams.stream("scenario")

    topo = regular_mesh(config.rows, config.cols, degree)
    sender = attach_host(topo, rng.randrange(0, config.cols))
    receiver = attach_host(
        topo, (config.rows - 1) * config.cols + rng.randrange(0, config.cols)
    )
    pre_path = topo.shortest_path(sender, receiver)
    assert pre_path is not None
    mesh_edges = [
        (pre_path[i], pre_path[i + 1]) for i in range(1, len(pre_path) - 2)
    ]
    failed = rng.choice(mesh_edges)

    sim, network = _build_network(protocol, topo, rng_streams, config)
    tracker = ConvergenceTracker(network.bus, dest=receiver, src=sender)
    tracker.seed_from_network(network)
    drop_counter = DropCounter(network.bus, window_start=config.fail_time)

    sink = PacketSink(flow_id=1, ttl_at_send=config.ttl)
    network.node(receiver).attach_app(sink)
    end_at = config.fail_time + repair_after + config.post_fail_window
    source = CbrSource(
        sim,
        network,
        FlowSpec(
            flow_id=1,
            src=sender,
            dst=receiver,
            rate_pps=config.rate_pps,
            start=config.traffic_start,
            stop=end_at,
            packet_bytes=config.packet_bytes,
            ttl=config.ttl,
        ),
    )
    source.start()
    injector = LinkScheduler(sim, network, detection_delay=config.detection_delay)
    injector.fail_link(failed[0], failed[1], at=config.fail_time)
    repair_at = config.fail_time + repair_after
    injector.restore_link(failed[0], failed[1], at=repair_at)
    sim.run(until=end_at)

    redetect_at = repair_at + config.detection_delay
    # When did the walked path regain its pre-failure (shortest) length?
    shortest_len = len(pre_path)
    restoration: Optional[float] = None
    for snap in tracker.snapshots:
        if (
            snap.time >= redetect_at
            and snap.complete
            and len(snap.path) <= shortest_len
        ):
            restoration = snap.time - redetect_at
            break
    final = tracker.final_path
    back = (
        final is not None and final.complete and len(final.path) <= shortest_len
    )
    # Walked-path state at the very end may predate redetection entirely if
    # the detour was already shortest-length (nothing to restore).
    if restoration is None and back and tracker.snapshots:
        last_change = tracker.snapshots[-1].time
        if last_change < redetect_at:
            restoration = 0.0
    return RepairResult(
        protocol=protocol,
        degree=degree,
        seed=seed,
        failed_link=failed,
        sent=source.sent,
        delivered=sink.stats.delivered,
        drops_total=drop_counter.total,
        restoration_convergence=restoration,
        back_on_shortest_path=back,
    )


# -------------------------------------------------------------- node failure


@dataclass
class NodeFailureResult:
    """Outcome of a whole-router failure on the flow's path."""

    protocol: str
    degree: int
    seed: int
    failed_node: int
    sent: int
    delivered: int
    drops_no_route: int
    drops_ttl: int
    recovered: bool

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.sent if self.sent else 0.0


def run_node_failure_scenario(
    protocol: str,
    degree: int,
    seed: int,
    config: Optional[ExperimentConfig] = None,
) -> NodeFailureResult:
    """Fail an entire router on the pre-failure path (related work [28]'s
    other failure mode).  A random interior path router crashes — all its
    links die at once, a much larger perturbation than a single link."""
    config = config or ExperimentConfig.quick()
    rng_streams = RngStreams(seed)
    rng = rng_streams.stream("scenario")

    topo = regular_mesh(config.rows, config.cols, degree)
    sender = attach_host(topo, rng.randrange(0, config.cols))
    receiver = attach_host(
        topo, (config.rows - 1) * config.cols + rng.randrange(0, config.cols)
    )
    path = topo.shortest_path(sender, receiver)
    assert path is not None
    # Interior path routers: exclude the hosts and their access routers (a
    # crash there disconnects the flow irrecoverably).
    candidates = path[2:-2]
    if not candidates:
        raise ValueError("path too short for an interior node failure")
    failed_node = rng.choice(candidates)

    sim, network = _build_network(protocol, topo, rng_streams, config)
    drop_counter = DropCounter(network.bus, window_start=config.fail_time)
    sink = PacketSink(flow_id=1, ttl_at_send=config.ttl)
    network.node(receiver).attach_app(sink)
    source = CbrSource(
        sim,
        network,
        FlowSpec(
            flow_id=1,
            src=sender,
            dst=receiver,
            rate_pps=config.rate_pps,
            start=config.traffic_start,
            stop=config.end_time,
            packet_bytes=config.packet_bytes,
            ttl=config.ttl,
        ),
    )
    source.start()
    injector = LinkScheduler(sim, network, detection_delay=config.detection_delay)
    injector.fail_node(failed_node, at=config.fail_time)
    sim.run(until=config.end_time)

    # Recovered = traffic flowing at full rate in the final five seconds.
    tail = [
        d for d in sink.stats.deliveries if d.time >= config.end_time - 5.0
    ]
    recovered = len(tail) >= 0.8 * config.rate_pps * 5.0
    return NodeFailureResult(
        protocol=protocol,
        degree=degree,
        seed=seed,
        failed_node=failed_node,
        sent=source.sent,
        delivered=sink.stats.delivered,
        drops_no_route=drop_counter.no_route,
        drops_ttl=drop_counter.ttl_expired,
        recovered=recovered,
    )


# ----------------------------------------------------------- random topology


def run_random_topology_scenario(
    protocol: str,
    degree: int,
    seed: int,
    config: Optional[ExperimentConfig] = None,
    n_nodes: int = 49,
):
    """The paper's experiment on a connected random ``degree``-regular graph.

    Returns the same :class:`~repro.experiments.scenario.ScenarioResult`
    shape as the mesh experiment, so results are directly comparable; used to
    check that the degree findings are not lattice artifacts.
    """
    from .scenario import (  # local import to avoid cycle noise
        ScenarioResult,
        TopologyEventOutcome,
    )
    from ..metrics.convergence import ConvergenceTracker, NetworkConvergenceWatcher
    from ..metrics.counters import MessageCounter
    from ..metrics.timeseries import delay_series, throughput_series

    config = config or ExperimentConfig.quick()
    rng_streams = RngStreams(seed)
    rng = rng_streams.stream("scenario")

    if (n_nodes * degree) % 2 != 0:
        n_nodes += 1  # a degree-regular graph needs an even degree sum
    topo = random_regular(n_nodes, degree, seed=seed)
    routers = sorted(topo.nodes)
    sender_router = rng.choice(routers)
    receiver_router = rng.choice([r for r in routers if r != sender_router])
    sender = attach_host(topo, sender_router)
    receiver = attach_host(topo, receiver_router)
    pre_path = topo.shortest_path(sender, receiver)
    assert pre_path is not None
    mesh_edges = [
        (pre_path[i], pre_path[i + 1]) for i in range(1, len(pre_path) - 2)
    ]
    if not mesh_edges:
        # Adjacent routers: the only on-path mesh link is between them.
        mesh_edges = [(pre_path[1], pre_path[2])]
    failed = rng.choice(mesh_edges)
    expected_final = topo.shortest_path(sender, receiver, exclude_link=failed)

    sim, network = _build_network(protocol, topo, rng_streams, config)
    tracker = ConvergenceTracker(network.bus, dest=receiver, src=sender)
    tracker.seed_from_network(network)
    net_watcher = NetworkConvergenceWatcher(network.bus)
    drop_counter = DropCounter(network.bus, window_start=config.fail_time)
    message_counter = MessageCounter(network.bus, window_start=config.fail_time)

    sink = PacketSink(flow_id=1, ttl_at_send=config.ttl)
    network.node(receiver).attach_app(sink)
    source = CbrSource(
        sim,
        network,
        FlowSpec(
            flow_id=1,
            src=sender,
            dst=receiver,
            rate_pps=config.rate_pps,
            start=config.traffic_start,
            stop=config.end_time,
            packet_bytes=config.packet_bytes,
            ttl=config.ttl,
        ),
    )
    source.start()
    injector = LinkScheduler(sim, network, detection_delay=config.detection_delay)
    injector.fail_link(failed[0], failed[1], at=config.fail_time)
    sim.run(until=config.end_time)

    detect_at = config.fail_time + config.detection_delay
    deliveries = sink.stats.deliveries
    return ScenarioResult(
        protocol=protocol,
        degree=degree,
        seed=seed,
        sender=sender,
        receiver=receiver,
        initial_path=tuple(pre_path),
        expected_final_path=tuple(expected_final) if expected_final else None,
        events=(
            TopologyEventOutcome(
                kind="fail",
                link=(min(failed), max(failed)),
                time=config.fail_time,
                detect_time=detect_at,
            ),
        ),
        sent=source.sent,
        delivered=sink.stats.delivered,
        drops_no_route=drop_counter.no_route,
        drops_ttl=drop_counter.ttl_expired,
        drops_link_down=drop_counter.link_down,
        drops_queue=drop_counter.queue_overflow,
        routing_convergence=net_watcher.convergence_time(detect_at),
        destination_convergence=tracker.routing_convergence_time(detect_at),
        forwarding_convergence=tracker.forwarding_convergence_delay(detect_at),
        converged_to_expected=(
            tracker.converged_to(tuple(expected_final)) if expected_final else False
        ),
        transient_path_count=len(tracker.transient_paths(config.fail_time)),
        throughput=throughput_series(
            deliveries, config.traffic_start, config.end_time, origin=config.fail_time
        ),
        delay=delay_series(
            deliveries, config.traffic_start, config.end_time, origin=config.fail_time
        ),
        messages=message_counter.messages,
        withdrawals=message_counter.withdrawals,
    )
