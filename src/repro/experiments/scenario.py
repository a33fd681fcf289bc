"""Scenario builder: one protocol, one topology, one event schedule, one flow.

Reconstructs the paper's experiment (§5): a sender attached to a random
first-row router streams CBR traffic to a receiver attached to a random
last-row router; after steady state, one randomly chosen link on the current
sender->receiver shortest path fails; every packet-level consequence is
measured until the post-failure window closes.

The failure side is driver-pluggable: by default the run executes the
paper's :class:`~repro.net.dynamics.SingleLinkFailureDriver`, but a
``driver_factory`` can substitute any :class:`~repro.net.dynamics.
TopologyDriver` (scripted flaps, mobility churn) over the same mesh.  Every
executed event lands on :attr:`ScenarioResult.events` with its own
reconvergence wave attributed from the network-wide route-change stream.
"""

from __future__ import annotations

import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from ..metrics.convergence import (
    ConvergenceTracker,
    NetworkConvergenceWatcher,
    attribute_waves,
)
from ..metrics.counters import Tally, tally
from ..metrics.loops import LoopReport, analyze_deliveries
from ..metrics.manet import ManetReport, analyze_manet
from ..metrics.reordering import ReorderingReport, analyze_reordering
from ..metrics.timeseries import BinnedSeries, delay_series, throughput_series
from ..net.dynamics import (
    LinkEvent,
    LinkScheduler,
    SingleLinkFailureDriver,
    TopologyDriver,
)
from ..net.network import Network
from ..net.packet import reset_packet_ids
from ..obs.flight import FlightRecorder, build_dump, check_dump, save_dump
from ..obs.profiler import NULL_PROFILER
from ..records import ArtifactError
from ..routing.catalog import build_factory, protocol_spec
from ..sim.engine import Simulator
from ..sim.rng import RngStreams
from ..sim.tracing import TraceBus
from ..topology.generators import attach_host
from ..topology.graph import Topology
from ..topology.mesh import regular_mesh
from ..traffic.cbr import CbrSource
from ..traffic.flows import FlowSpec
from ..traffic.sink import PacketSink
from .config import ExperimentConfig

__all__ = [
    "EventClock",
    "Layout",
    "ScenarioPlan",
    "ScenarioResult",
    "ScenarioRun",
    "TopologyEventOutcome",
    "event_clock",
    "fold_result",
    "lay_out",
    "mesh_layout",
    "run_scenario",
    "mesh_links",
    "replay",
]


@dataclass(frozen=True)
class TopologyEventOutcome:
    """One executed topology event and the reconvergence wave it caused.

    ``wave_start``/``wave_end`` are the first and last network-wide route
    changes inside the event's attribution window (from its detection to
    the next event's detection, the last window running to the end of the
    run); both ``None`` when the window saw no routing activity.
    """

    kind: str  # "fail" | "restore"
    link: tuple[int, int]
    time: float
    detect_time: float
    wave_start: Optional[float] = None
    wave_end: Optional[float] = None


@dataclass(frozen=True)
class ScenarioPlan:
    """The laid-out run a ``driver_factory`` may build its schedule from."""

    topology: Topology
    sender: int
    receiver: int
    pre_path: tuple[int, ...]
    #: The layout's default on-path link (None on a mobility field).
    failed: Optional[tuple[int, int]]
    fail_at: float
    detect_at: float
    end_at: float


@dataclass
class ScenarioResult:
    """Everything measured in one simulation run."""

    protocol: str
    degree: int
    seed: int
    sender: int
    receiver: int
    initial_path: tuple[int, ...]
    expected_final_path: Optional[tuple[int, ...]]
    #: Every executed topology event, in execution order, with its wave.
    events: tuple[TopologyEventOutcome, ...] = ()
    # Packet accounting (post-failure window for drops; whole flow otherwise).
    sent: int = 0
    delivered: int = 0
    drops_no_route: int = 0
    drops_ttl: int = 0
    drops_link_down: int = 0
    drops_queue: int = 0
    # Convergence clocks (seconds from failure detection).
    routing_convergence: float = 0.0  # network-wide, all destinations (Fig 6b)
    destination_convergence: float = 0.0  # receiver destination only
    forwarding_convergence: float = 0.0  # sender->receiver path (Fig 6a)
    converged_to_expected: bool = False
    transient_path_count: int = 0
    # Per-second series, times relative to the failure instant.
    throughput: Optional[BinnedSeries] = None
    delay: Optional[BinnedSeries] = None
    # Control-plane overhead in the post-failure window.
    messages: int = 0
    withdrawals: int = 0
    # Loop analysis (only when record_paths was enabled).
    loop_report: Optional[LoopReport] = None
    # Arrival-order inversion analysis (always computed).
    reordering: Optional[ReorderingReport] = None
    # MANET triple: PDR / normalized routing load / E2E delay (whole run).
    manet: Optional[ManetReport] = None
    # Invariant-monitor findings (non-empty only for validated runs).
    violations: tuple[str, ...] = ()
    # Monitors that declined to judge this run: name -> reason.
    monitor_skips: dict[str, str] = field(default_factory=dict)
    # Post-mortem ticket written because a monitor fired (None otherwise).
    dump_path: Optional[str] = None

    @property
    def total_drops(self) -> int:
        return (
            self.drops_no_route
            + self.drops_ttl
            + self.drops_link_down
            + self.drops_queue
        )

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.sent if self.sent else 0.0

    @property
    def failed_link(self) -> Optional[tuple[int, int]]:
        """The first failed link, or ``None`` for an event-free run."""
        for event in self.events:
            if event.kind == "fail":
                return event.link
        return None


@dataclass(frozen=True)
class Layout:
    """Where a run happens: the live topology, the measured flow, and the
    on-path link the default scenario fails.

    Mobility runs build the network over the union of every link that ever
    exists; ``initial_topology`` is then the t=0 connectivity the protocols
    warm-start on and ``initially_down`` the union links outside it.
    """

    topology: Topology
    sender: int
    receiver: int
    pre_path: tuple[int, ...]
    #: Default link to fail (None when the caller's driver picks its own),
    #: and the path the network should converge to once it is gone.
    failed: Optional[tuple[int, int]] = None
    expected_final: Optional[tuple[int, ...]] = None
    initial_topology: Optional[Topology] = None
    initially_down: tuple[tuple[int, int], ...] = ()


def mesh_links(path: Sequence[int]) -> list[tuple[int, int]]:
    """The failable links of a host-to-host path: every hop but the two
    access links at its ends."""
    return list(zip(path[1:-2], path[2:-1]))


def lay_out(
    topo: Topology,
    sender_router: int,
    receiver_router: int,
    rng: Optional[random.Random] = None,
) -> Layout:
    """Attach the flow's two hosts to ``topo`` and walk the pre-failure path.

    With ``rng``, also draw the default perturbation: a random mesh link on
    that path (the access links at either end are never failed).
    """
    sender = attach_host(topo, sender_router)
    receiver = attach_host(topo, receiver_router)
    path = topo.shortest_path(sender, receiver)
    if path is None:
        raise ValueError(f"hosts {sender} and {receiver} are not connected")
    if rng is None:
        return Layout(topo, sender, receiver, tuple(path))
    candidates = mesh_links(path)
    if not candidates:
        raise ValueError("shortest path has no mesh links to fail")
    failed = rng.choice(candidates)
    final = topo.shortest_path(sender, receiver, exclude_link=failed)
    return Layout(
        topo, sender, receiver, tuple(path), failed, tuple(final) if final else None
    )


def mesh_layout(
    config: ExperimentConfig,
    degree: int,
    rng: random.Random,
    draw_link: bool = True,
) -> Layout:
    """The paper's layout (§5): sender on a random first-row router, receiver
    on a random last-row router, one random on-path link to fail.

    Every mesh runner — single-process, sharded, traced, repair, transport,
    node failure — draws from the run's ``"scenario"`` stream through this
    one function, so the same seed always means the same experiment.
    """
    topo = regular_mesh(config.rows, config.cols, degree)
    sender_router = rng.randrange(0, config.cols)
    receiver_router = (config.rows - 1) * config.cols + rng.randrange(0, config.cols)
    return lay_out(topo, sender_router, receiver_router, rng if draw_link else None)


class EventClock(NamedTuple):
    """When a run's topology events land, as both run modes measure it."""

    #: Each event's detection instant, in schedule order.
    detect_times: tuple[float, ...]
    #: The post-failure window opens at the first event (``fail_at`` for an
    #: event-free run); drops, overhead and series are relative to it.
    first_at: float
    #: The convergence clocks start at the first detection.
    first_detect: float


def event_clock(
    events: Sequence[LinkEvent], detection_delay: float, fail_at: float
) -> EventClock:
    """The one derivation of a run's event clock from its schedule."""
    detect_times = tuple(e.detected_at(detection_delay) for e in events)
    if not events:
        return EventClock((), fail_at, fail_at + detection_delay)
    return EventClock(detect_times, events[0].time, detect_times[0])


def fold_result(
    protocol: str,
    degree: int,
    seed: int,
    layout: Layout,
    scheduled: Sequence[LinkEvent],
    clock: EventClock,
    *,
    traffic_start: float,
    end_at: float,
    tracker: ConvergenceTracker,
    watcher: NetworkConvergenceWatcher,
    sent: int,
    deliveries: list,
    window: Tally,
    run: Tally,
    record_paths: bool,
) -> ScenarioResult:
    """Fold one run's measurements into a :class:`ScenarioResult`.

    The one assembly both run modes share: a single-process run passes its
    live instruments, a sharded run the merged per-shard totals and a
    tracker and watcher fed the merged route stream.  ``deliveries`` are
    the measured flow's; ``window`` counts network-wide drops and messages
    from the first event on, ``run`` from warm start on (the MANET triple's
    routing load).
    """
    first_at, first_detect = clock.first_at, clock.first_detect
    waves = attribute_waves(clock.detect_times, watcher.change_times, end_at)
    return ScenarioResult(
        protocol=protocol,
        degree=degree,
        seed=seed,
        sender=layout.sender,
        receiver=layout.receiver,
        initial_path=layout.pre_path,
        expected_final_path=layout.expected_final,
        events=tuple(
            TopologyEventOutcome(e.kind, e.link_key, e.time, detected, *wave)
            for e, detected, wave in zip(scheduled, clock.detect_times, waves)
        ),
        sent=sent,
        delivered=len(deliveries),
        drops_no_route=window.drops_no_route,
        drops_ttl=window.drops_ttl,
        drops_link_down=window.drops_link_down,
        drops_queue=window.drops_queue,
        routing_convergence=watcher.convergence_time(first_detect),
        destination_convergence=tracker.routing_convergence_time(first_detect),
        forwarding_convergence=tracker.forwarding_convergence_delay(first_detect),
        converged_to_expected=bool(
            layout.expected_final and tracker.converged_to(layout.expected_final)
        ),
        transient_path_count=len(tracker.transient_paths(first_at)),
        throughput=throughput_series(deliveries, traffic_start, end_at, origin=first_at),
        delay=delay_series(deliveries, traffic_start, end_at, origin=first_at),
        messages=window.messages,
        withdrawals=window.withdrawals,
        # Forwarding hops on the original path.
        loop_report=(
            analyze_deliveries(deliveries, shortest_hops=len(layout.pre_path) - 2)
            if record_paths
            else None
        ),
        reordering=analyze_reordering(deliveries),
        manet=analyze_manet(
            sent, deliveries, run.messages, control_bytes=run.message_bytes
        ),
    )


class ScenarioRun:
    """One built, instrumented and armed run — the only place outside the
    shard workers where a live network is constructed.

    Construction fixes the order every runner shares: simulator, bus (the
    recorder attached first, so it sees warm-start installs), network,
    protocols, warm or cold start, then tracker, watcher and the warm-start
    :func:`~repro.metrics.counters.tally`, one CBR source and sink per
    flow, the driver's link events, and finally the monitors.
    :meth:`execute` runs the phase-split timeline; :meth:`to_result` folds
    the instruments into a :class:`ScenarioResult` through
    :func:`fold_result`, the fold the sharded merge shares.  Runners with a
    bespoke result type project it from the instruments exposed here
    (``tracker``, ``sinks``, ``sources``, ``scheduled``) and from that
    result.

    ``layout`` defaults to :func:`mesh_layout` on the seed's ``"scenario"``
    stream.  ``flows`` is a sequence of ``(src, dst)`` host pairs, default
    the layout's one flow; pass ``()`` to attach applications by hand.
    ``driver_factory`` maps the :class:`ScenarioPlan` to the run's
    :class:`~repro.net.dynamics.TopologyDriver`, default the paper's single
    on-path failure.  ``recorder`` is a
    :class:`~repro.obs.flight.FlightRecorder` that keeps every trace record
    of the run (timelines and post-mortems read records off it).
    ``kind`` and ``meta`` label the live log; ``kind`` is also the run a
    post-mortem ticket names (see :func:`replay`).  A run is one process:
    a config with ``shards > 1`` is refused (only :func:`run_scenario`
    hands its run to the sharded runtime).
    """

    def __init__(
        self,
        protocol: str,
        degree: int,
        seed: int,
        config: ExperimentConfig,
        layout: Optional[Layout] = None,
        *,
        flows: Optional[Sequence[tuple[int, int]]] = None,
        driver_factory: Optional[Callable[[ScenarioPlan], TopologyDriver]] = None,
        monitors: Optional[object] = None,
        obs: Optional[object] = None,
        recorder: Optional[FlightRecorder] = None,
        dump_dir: Optional[str] = None,
        live_log=None,
        kind: str = "scenario",
        meta: Optional[dict] = None,
        reactive_strict: bool = True,
    ) -> None:
        if config.shards > 1:
            raise ValueError(
                f"the {kind} run {protocol} d{degree} s{seed} runs in one "
                f"process, not {config.shards} shards: only run_scenario's "
                "mesh failure is sharded (see docs/distributed.md)"
            )
        if monitors is None and config.validate:
            from ..validation.monitors import MonitorSuite

            monitors = MonitorSuite()
        self.protocol, self.degree, self.seed, self.config = protocol, degree, seed, config
        self.monitors, self.obs, self.recorder = monitors, obs, recorder
        self.dump_dir, self.kind = dump_dir, kind
        self.meta = {"protocol": protocol, "degree": degree, "seed": seed, **(meta or {})}
        self.profiler = obs.profiler if obs is not None else NULL_PROFILER

        from ..obs.live import open_live_log

        self.log, self._owns_log = open_live_log(live_log, run=kind, meta=self.meta)
        self._log_started = time.perf_counter()

        with self.profiler.span("setup"):
            if layout is None:
                rng = RngStreams(seed).stream("scenario")
                layout = mesh_layout(config, degree, rng)
            self.layout = layout
            topo, sender, receiver = layout.topology, layout.sender, layout.receiver
            initial = layout.initial_topology or topo

            self.sim = sim = Simulator()
            self.bus = bus = TraceBus()
            if recorder is not None:
                recorder.attach(bus)
            self.network = network = Network(
                sim,
                topo,
                bus,
                queue_capacity=config.queue_capacity,
                record_paths=config.record_paths,
                # Monitors and the flight recorder want the hop-by-hop TTL view.
                record_forwards=monitors is not None or recorder is not None,
                priority_control=config.prioritize_control,
            )
            network.attach_protocols(
                build_factory(protocol, network, RngStreams(seed), initial, config.dv_infinity)
            )
            scheduler = LinkScheduler(sim, network, config.detection_delay)
            scheduler.take_down_initially(layout.initially_down)

        with self.profiler.span("warmup", sim=sim):
            base = 0.0
            if config.cold_start:
                network.start_protocols()
                sim.run(until=config.cold_warmup)
                base = config.cold_warmup
            else:
                for node in network.iter_nodes():
                    assert node.protocol is not None
                    node.protocol.warm_start(initial)
        self._beat("warmup")

        self.traffic_start = base + config.traffic_start
        self.fail_at = fail_at = base + config.fail_time
        self.end_at = end_at = base + config.end_time
        detect_at = fail_at + config.detection_delay
        if driver_factory is None:
            if layout.failed is None:
                raise ValueError("layout draws no link to fail; pass a driver_factory")
            driver: TopologyDriver = SingleLinkFailureDriver(layout.failed, fail_at)
        else:
            plan = ScenarioPlan(
                topo, sender, receiver, layout.pre_path, layout.failed,
                fail_at=fail_at, detect_at=detect_at, end_at=end_at,
            )
            driver = driver_factory(plan)
        events = driver.generate(end_at)
        self.clock = event_clock(events, config.detection_delay, fail_at)

        self.tracker = ConvergenceTracker(bus, dest=receiver, src=sender)
        self.tracker.seed(
            {node.id: node.next_hop(receiver) for node in network.iter_nodes()}, sim.now
        )
        self.watcher = NetworkConvergenceWatcher(bus)
        # The MANET triple's routing load counts every message after warm
        # start, not just the post-failure window's.
        self._warm = tally(network)

        self.sinks: list[PacketSink] = []
        self.sources: list[CbrSource] = []
        if flows is None:
            flows = [(sender, receiver)]
        for flow_id, (src, dst) in enumerate(flows, start=1):
            sink = PacketSink(flow_id=flow_id, ttl_at_send=config.ttl)
            network.node(dst).attach_app(sink)
            spec = FlowSpec(
                flow_id=flow_id, src=src, dst=dst, rate_pps=config.rate_pps,
                start=self.traffic_start, stop=end_at,
                packet_bytes=config.packet_bytes, ttl=config.ttl,
            )
            source = CbrSource(sim, network, spec)
            source.start()
            self.sinks.append(sink)
            self.sources.append(source)

        self.scheduled = scheduler.load(events)

        if monitors is not None:
            from ..validation.monitors import RunContext

            spec = protocol_spec(protocol)
            monitors.attach(
                RunContext(
                    sim=sim,
                    network=network,
                    bus=bus,
                    topology=topo,
                    protocol=protocol,
                    detect_time=self.clock.first_detect,
                    end_time=end_at,
                    infinity=config.dv_infinity if spec.distance_vector else None,
                    settle_margin=spec.settle_margin,
                    # Destinations data wants: what reactive protocols are judged on.
                    active_dests=frozenset(dst for _, dst in flows),
                    reactive_strict=reactive_strict,
                )
            )

    def _beat(self, phase: str) -> None:
        """Phase-boundary heartbeat — written between sim.run calls only."""
        if self.log is not None:
            self.log.heartbeat(
                shard=0,
                clock=self.sim.now,
                events=self.sim.events_processed,
                wall_s=time.perf_counter() - self._log_started,
                phase=phase,
            )

    def execute(
        self, phases: tuple[str, str, str] = ("steady", "failure", "convergence")
    ) -> "ScenarioRun":
        """Run to ``end_at``, split at the first event and its detection.

        The split happens at the same instants whether observed or not:
        repeated ``run(until=...)`` calls form one contiguous timeline, so
        the event order is identical to a single ``run(until=end_at)`` (the
        golden on/off test pins this).  ``phases`` names the three stretches
        for the profiler and the live log.  The first stretch also stops
        just short of the first event to tally what came before the window,
        so drops and messages stamped at the event itself count inside it.
        """
        clock, sim = self.clock, self.sim
        stops = (clock.first_at, clock.first_detect, self.end_at)
        for index, (phase, until) in enumerate(zip(phases, stops)):
            with self.profiler.span(phase, sim=sim):
                if index == 0:
                    sim.run(until=min(math.nextafter(until, -math.inf), self.end_at))
                    self._window_open = tally(self.network)
                sim.run(until=min(until, self.end_at))
            self._beat(phase)
        return self

    def to_result(self) -> ScenarioResult:
        """Fold the instruments into a result, release them and end the run.

        Packet accounting and the delivery-derived series follow the first
        flow (see :func:`fold_result`).  Finalizes the monitors, writes the
        post-mortem ticket if one is armed and a monitor fired, closes
        recorder, observation and live log, and then closes simulator,
        network and bus: nothing can run on the network again, and its
        protocols are gone.  A caller that needs live state (a protocol's
        table, a link's listeners) reads it before calling this; the
        instruments (``tracker``, ``sinks``, ``sources``, ``scheduled``)
        stay readable.
        """
        with self.profiler.span("drain", sim=self.sim):
            end = tally(self.network)
            result = fold_result(
                self.protocol, self.degree, self.seed, self.layout, self.scheduled,
                self.clock,
                traffic_start=self.traffic_start,
                end_at=self.end_at,
                tracker=self.tracker,
                watcher=self.watcher,
                sent=self.sources[0].sent if self.sources else 0,
                deliveries=self.sinks[0].stats.deliveries if self.sinks else [],
                window=end - self._window_open,
                run=end - self._warm,
                record_paths=self.config.record_paths,
            )
            if self.monitors is not None:
                result.violations = tuple(str(v) for v in self.monitors.finalize())
                result.monitor_skips = dict(self.monitors.skips)
            if result.violations and self.dump_dir:
                result.dump_path = self._dump(result)
        if self.recorder is not None:
            self.recorder.close()
        if self.obs is not None:
            self.obs.finalize(sim=self.sim, network=self.network, bus=self.bus)
        if self.log is not None:
            if self.obs is not None:
                self.log.append("profile", **self.obs.to_dict())
            for finding in result.violations:
                self.log.violation(finding)
            self.log.end(ok=not result.violations)
            if self._owns_log:
                self.log.close()
        self.close()
        return result

    def close(self) -> None:
        """End the run: close simulator, network and bus.

        The pending events, the network and the bus's subscribers are
        reference cycles; cut, the run is freed by reference count once its
        caller drops it.  :meth:`to_result` calls this; a runner that reads
        its own result off the instruments calls it when done (in a
        ``finally``), so an abandoned run is freed too.
        """
        self.sim.close()
        self.network.close()
        self.bus.close()

    def _dump(self, result: ScenarioResult) -> str:
        """Write the post-mortem ticket naming this run (see :func:`replay`).

        The ticket's config asks for validation, so its replay attaches the
        default monitor suite however this run got its monitors.
        """
        from .persistence import scenario_to_dict

        os.makedirs(self.dump_dir, exist_ok=True)
        ticket = build_dump(
            self.kind, self.protocol, self.degree, self.seed,
            self.config.with_(validate=True), scenario_to_dict(result),
        )
        prefix = "" if self.kind == "scenario" else f"{self.kind}-"
        path = os.path.join(
            self.dump_dir,
            f"flight-{prefix}{self.protocol}-d{self.degree}-s{self.seed}.json",
        )
        save_dump(ticket, path)
        return path


def run_scenario(
    protocol: str,
    degree: int,
    seed: int,
    config: Optional[ExperimentConfig] = None,
    monitors: Optional[object] = None,
    obs: Optional[object] = None,
    recorder: Optional[FlightRecorder] = None,
    dump_dir: Optional[str] = None,
    driver_factory: Optional[Callable[[ScenarioPlan], TopologyDriver]] = None,
    live_log=None,
) -> ScenarioResult:
    """Run one complete experiment and return all measurements.

    ``driver_factory`` substitutes the topology-event schedule: it receives
    the laid-out :class:`ScenarioPlan` (topology, flow endpoints, the
    on-path link the default scenario would fail, and the run's clock) and
    returns any :class:`~repro.net.dynamics.TopologyDriver`.  The default is
    the paper's single on-path failure,
    ``SingleLinkFailureDriver(plan.failed, plan.fail_at)``.

    ``monitors`` is an optional :class:`repro.validation.MonitorSuite` to
    attach to the run; with ``config.validate`` set a default suite is
    created automatically.  Monitor findings land on
    ``ScenarioResult.violations``.

    ``obs`` is an optional :class:`repro.obs.RunObservation`: its profiler
    receives the phase spans (setup / warmup / steady / failure /
    convergence / drain) and its registry the run's metrics.  Observation is
    read-only — it never touches simulated time or RNG streams — so results
    are bit-identical with and without it (pinned by the golden on/off test).

    ``recorder`` is an optional :class:`repro.obs.FlightRecorder`; it is
    attached to the run's bus (capturing warm-start route installs too) and
    detached before return, every record left readable for
    autopsies/timelines.  A sharded run fills it with every shard's records
    in :func:`~repro.dist.merge.canonical_trace_streams` order.  Like
    ``obs``, recording is read-only and does not perturb results.
    ``dump_dir`` arms post-mortems: if any monitor fires, a ticket naming
    the run is written there and ``ScenarioResult.dump_path`` names the
    file; :func:`replay` re-runs it with a recorder.  A ``driver_factory``
    schedule cannot be named by a ticket, so the two are refused together.

    ``live_log`` (a path or an open :class:`~repro.obs.live.RunEventLog`)
    streams progress records: single-process runs emit one heartbeat at
    each phase boundary (the log is written strictly *between*
    ``sim.run`` calls, so the event stream is untouched); sharded runs
    delegate to the coordinator's window-throttled heartbeats.  Metrics
    stay byte-identical either way (pinned by the transparency tests).
    With ``obs`` as well, ``obs.to_dict()`` is written once, after the last
    ``sim.run``, as the log's ``profile`` record.
    """
    config = config or ExperimentConfig.quick()
    if dump_dir is not None and driver_factory is not None:
        raise ValueError(
            "run_scenario takes dump_dir or driver_factory, not both: a "
            "post-mortem ticket names its run by config and seed, and cannot "
            "name a driver_factory's schedule"
        )
    if config.shards > 1:
        # Delegate to the sharded runtime (repro.dist): same layout, same
        # schedule, byte-identical result — pinned by the differential suite.
        unsupported = dict(
            monitors=monitors, obs=obs, dump_dir=dump_dir, driver_factory=driver_factory
        )
        given = sorted(name for name, value in unsupported.items() if value is not None)
        if given:
            raise ValueError(
                f"sharded runs (shards={config.shards}) do not support "
                f"{', '.join(given)}; the offline merge re-derives the "
                "invariants it can (see docs/distributed.md)"
            )
        from ..dist.runner import ShardScenarioSpec, run_sharded

        spec = ShardScenarioSpec.mesh(protocol, degree, seed, config)
        return run_sharded(spec, recorder=recorder, live_log=live_log)
    run = ScenarioRun(
        protocol, degree, seed, config,
        monitors=monitors, obs=obs, recorder=recorder, dump_dir=dump_dir,
        driver_factory=driver_factory, live_log=live_log,
    )
    return run.execute().to_result()


def replay(dump: Mapping) -> tuple[ScenarioResult, FlightRecorder]:
    """Re-run the run a post-mortem ticket names, recording every record.

    The ticket (see :func:`repro.obs.flight.build_dump`) names a
    ``"scenario"`` run through :func:`run_scenario` or a ``"churn"`` run
    through :func:`~repro.experiments.churn.run_churn_scenario`; the re-run
    must be the same run as the ticket's result (see
    :func:`~repro.experiments.persistence.diff_runs`).
    Returns the re-run's result and the recorder that watched it; packet
    ids in its records count from zero, as in a fresh process.  A
    malformed ticket, a config that does not build or does not match its
    fingerprint, a run that does not build, or a field the re-run does not
    reproduce is an :class:`~repro.records.ArtifactError` naming the defect.
    """
    from .churn import run_churn_scenario
    from .persistence import diff_runs, scenario_from_dict

    problems = check_dump(dump)
    if problems:
        raise ArtifactError("; ".join(problems))
    try:
        config = ExperimentConfig.from_dict(dump["config"])
    except (TypeError, ValueError) as exc:
        raise ArtifactError(f"config does not build: {exc}") from exc
    if config.fingerprint() != dump["fingerprint"]:
        raise ArtifactError("config does not match its fingerprint")
    ticket = scenario_from_dict(dump["result"])
    for name in ("protocol", "degree", "seed"):
        if getattr(ticket, name) != dump[name]:
            raise ArtifactError(
                f"names {name} {dump[name]!r} but its result is for "
                f"{getattr(ticket, name)!r}"
            )
    recorder = FlightRecorder()
    protocol, seed = dump["protocol"], dump["seed"]
    reset_packet_ids()
    try:
        if dump["run"] == "churn":
            result = run_churn_scenario(protocol, seed, config, recorder=recorder)
        else:
            result = run_scenario(protocol, dump["degree"], seed, config, recorder=recorder)
    except ValueError as exc:
        raise ArtifactError(f"names a run that does not build: {exc}") from exc
    problems = diff_runs(ticket, result)
    if problems:
        raise ArtifactError(f"does not replay: the re-run differs in {problems[0]}")
    return result, recorder
