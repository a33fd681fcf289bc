"""Future-work experiments (paper §6), implemented.

The paper closes with extensions it leaves open; each is the paper's one
experiment shape with different inputs, so each runner here is a layout, a
driver and a projection of the shared :class:`~repro.experiments.scenario.
ScenarioRun`:

* :func:`run_multiflow_scenario` — multiple sender/receiver pairs and
  multiple (optionally overlapping-in-time) link failures;
* :func:`run_transport_scenario` — end-to-end reliable-transport (TCP-like)
  performance through a convergence event;
* :func:`run_repair_scenario` / :func:`run_node_failure_scenario` — the
  restoration side of convergence, and a whole-router crash;
* :func:`run_random_topology_scenario` — the single-flow experiment on a
  connected random regular graph, to check that the regular-mesh results are
  not lattice artifacts.

Running through the core, every runner honours ``config.cold_start``,
``prioritize_control`` and ``record_paths``; ``config.validate`` attaches
the invariant monitors and surfaces their findings on the result's
``violations`` (the transport runner, whose run ends with the transfer
rather than at a fixed horizon, refuses it by name instead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..net.dynamics import LinkEvent, ScriptedDriver, SingleLinkFailureDriver
from ..sim.rng import RngStreams
from ..topology.generators import random_regular
from ..topology.mesh import regular_mesh
from ..traffic.transport import ReliableReceiver, ReliableSender, TransportConfig, TransportStats
from .config import ExperimentConfig
from .scenario import ScenarioResult, ScenarioRun, lay_out, mesh_layout, mesh_links

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
    #: Invariant-monitor findings (non-empty only under ``config.validate``).
    violations: tuple[str, ...] = ()

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
    rng = RngStreams(seed).stream("multiflow")

    topo = regular_mesh(config.rows, config.cols, degree)
    last_row = (config.rows - 1) * config.cols
    layouts = [
        lay_out(
            topo,
            rng.randrange(0, config.cols),
            last_row + rng.randrange(0, config.cols),
        )
        for _ in range(n_flows)
    ]
    # Choose one mesh link on each targeted flow's shortest path; reject
    # duplicates so failures are distinct.
    failed: list[tuple[int, int]] = []
    for flow in layouts[:n_failures]:
        taken = {frozenset(link) for link in failed}
        candidates = [
            link for link in mesh_links(flow.pre_path) if frozenset(link) not in taken
        ]
        if candidates:
            failed.append(rng.choice(candidates))

    def staggered(plan):
        return ScriptedDriver(
            tuple(
                LinkEvent("fail", a, b, plan.fail_at + i * failure_spacing)
                for i, (a, b) in enumerate(failed)
            )
        )

    flows = [(flow.sender, flow.receiver) for flow in layouts]
    run = ScenarioRun(
        protocol, degree, seed, config, layouts[0], flows=flows, driver_factory=staggered
    )
    result = run.execute().to_result()
    return MultiFlowResult(
        protocol=protocol,
        degree=degree,
        seed=seed,
        failed_links=failed,
        flows=[
            FlowOutcome(
                flow_id=source.spec.flow_id,
                sender=source.spec.src,
                receiver=source.spec.dst,
                sent=source.sent,
                delivered=sink.stats.delivered,
            )
            for source, sink in zip(run.sources, run.sinks)
        ],
        drops_no_route=result.drops_no_route,
        drops_ttl=result.drops_ttl,
        violations=result.violations,
    )


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
    until the transfer completes (or the configured horizon expires), which
    is why ``config.validate`` is refused: the monitors judge quiescence
    against a fixed end of run that this runner does not have.
    """
    config = config or ExperimentConfig.quick()
    if config.validate:
        raise ValueError(
            "run_transport_scenario cannot be judged by the invariant "
            "monitors: the run ends with the transfer, not at a fixed "
            "horizon (validate)"
        )
    transport = transport or TransportConfig()
    no_events = None if inject_failure else lambda plan: ScriptedDriver(())
    run = ScenarioRun(protocol, degree, seed, config, flows=(), driver_factory=no_events)
    sim, sender, receiver = run.sim, run.layout.sender, run.layout.receiver
    ReliableReceiver(run.network, receiver, sender, flow_id=1, config=transport)
    tx = ReliableSender(
        sim, run.network, sender, receiver, flow_id=1,
        total_segments=total_segments, config=transport,
    )
    try:
        sim.schedule_at(run.traffic_start, tx.start)
        horizon = run.end_at + 120.0
        while sim.now < horizon and not tx.done:
            sim.run(until=min(horizon, sim.now + 10.0))
    finally:
        tx.close()
        run.close()
    return TransportResult(
        protocol=protocol,
        degree=degree,
        seed=seed,
        failed_link=run.layout.failed,
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
    #: Invariant-monitor findings (non-empty only under ``config.validate``).
    violations: tuple[str, ...] = ()

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
    config = config or ExperimentConfig.quick()
    def fail_then_repair(plan):
        return SingleLinkFailureDriver(
            plan.failed, plan.fail_at, restore_at=plan.fail_at + repair_after
        )

    # The observation window runs its full length after the repair.
    window = repair_after + config.post_fail_window
    run = ScenarioRun(
        protocol, degree, seed, config.with_(post_fail_window=window),
        driver_factory=fail_then_repair,
    )
    result = run.execute().to_result()
    tracker = run.tracker

    redetect_at = run.fail_at + repair_after + config.detection_delay
    # When did the walked path regain its pre-failure (shortest) length?
    shortest_len = len(result.initial_path)
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
        if tracker.snapshots[-1].time < redetect_at:
            restoration = 0.0
    return RepairResult(
        protocol=protocol,
        degree=degree,
        seed=seed,
        failed_link=run.layout.failed,
        sent=result.sent,
        delivered=result.delivered,
        drops_total=result.total_drops,
        restoration_convergence=restoration,
        back_on_shortest_path=back,
        violations=result.violations,
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
    #: Invariant-monitor findings (non-empty only under ``config.validate``).
    violations: tuple[str, ...] = ()

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
    rng = RngStreams(seed).stream("scenario")
    layout = mesh_layout(config, degree, rng, draw_link=False)
    # Interior path routers: exclude the hosts and their access routers (a
    # crash there disconnects the flow irrecoverably).
    candidates = layout.pre_path[2:-2]
    if not candidates:
        raise ValueError("path too short for an interior node failure")
    failed_node = rng.choice(candidates)

    def crash(plan):
        return ScriptedDriver(
            tuple(
                LinkEvent("fail", failed_node, neighbor, plan.fail_at)
                for neighbor in plan.topology.neighbors(failed_node)
            )
        )

    run = ScenarioRun(protocol, degree, seed, config, layout, driver_factory=crash)
    result = run.execute().to_result()
    # Recovered = traffic flowing at full rate in the final five seconds.
    tail = [
        d for d in run.sinks[0].stats.deliveries if d.time >= run.end_at - 5.0
    ]
    return NodeFailureResult(
        protocol=protocol,
        degree=degree,
        seed=seed,
        failed_node=failed_node,
        sent=result.sent,
        delivered=result.delivered,
        drops_no_route=result.drops_no_route,
        drops_ttl=result.drops_ttl,
        recovered=len(tail) >= 0.8 * config.rate_pps * 5.0,
        violations=result.violations,
    )


# ----------------------------------------------------------- random topology


def run_random_topology_scenario(
    protocol: str,
    degree: int,
    seed: int,
    config: Optional[ExperimentConfig] = None,
    n_nodes: int = 49,
) -> ScenarioResult:
    """The paper's experiment on a connected random ``degree``-regular graph.

    Returns the same :class:`~repro.experiments.scenario.ScenarioResult`
    as the mesh experiment — every field, including reordering, the MANET
    triple, the loop report and monitor findings — so results are directly
    comparable; used to check that the degree findings are not lattice
    artifacts.
    """
    config = config or ExperimentConfig.quick()
    rng = RngStreams(seed).stream("scenario")
    if (n_nodes * degree) % 2 != 0:
        n_nodes += 1  # a degree-regular graph needs an even degree sum
    topo = random_regular(n_nodes, degree, seed=seed)
    routers = sorted(topo.nodes)
    sender_router = rng.choice(routers)
    receiver_router = rng.choice([r for r in routers if r != sender_router])
    layout = lay_out(topo, sender_router, receiver_router, rng)
    return ScenarioRun(protocol, degree, seed, config, layout).execute().to_result()
