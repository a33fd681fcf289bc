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

import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..metrics.convergence import (
    ConvergenceTracker,
    NetworkConvergenceWatcher,
    attribute_waves,
)
from ..metrics.counters import DropCounter, MessageCounter
from ..metrics.loops import LoopReport, analyze_deliveries
from ..metrics.manet import ManetReport, analyze_manet
from ..metrics.reordering import ReorderingReport, analyze_reordering
from ..metrics.timeseries import BinnedSeries, delay_series, throughput_series
from ..net.dynamics import LinkScheduler, SingleLinkFailureDriver, TopologyDriver
from ..net.network import Network
from ..net.node import Node
from ..obs.flight import FlightRecorder, build_dump, save_dump
from ..obs.profiler import NULL_PROFILER
from ..routing.aodv import AodvProtocol
from ..routing.bgp import BgpConfig, BgpProtocol
from ..routing.damping import DampingConfig
from ..routing.dsr import DsrProtocol
from ..routing.olsr import OlsrProtocol
from ..routing.dbf import DbfProtocol
from ..routing.dual import DualProtocol
from ..routing.dv_common import DistanceVectorConfig
from ..routing.rip import RipProtocol
from ..routing.spf import SpfConfig, SpfProtocol
from ..routing.static import StaticProtocol
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
    "ScenarioPlan",
    "ScenarioResult",
    "TopologyEventOutcome",
    "run_scenario",
    "make_protocol_factory",
]


@dataclass(frozen=True)
class TopologyEventOutcome:
    """One executed topology event and the reconvergence wave it caused.

    ``wave_start``/``wave_end`` are the first and last network-wide route
    changes inside the event's attribution window (from its detection to
    the next event's detection, the last window running to the end of the
    run); both ``None`` when the window saw no routing activity.  Results
    migrated from format v1/v2 carry ``time=None``/``detect_time=None`` —
    the old formats recorded only which link failed, not when.
    """

    kind: str  # "fail" | "restore"
    link: tuple[int, int]
    time: Optional[float]
    detect_time: Optional[float]
    wave_start: Optional[float] = None
    wave_end: Optional[float] = None


@dataclass(frozen=True)
class ScenarioPlan:
    """The laid-out run a ``driver_factory`` may build its schedule from."""

    topology: Topology
    sender: int
    receiver: int
    pre_path: tuple[int, ...]
    failed: tuple[int, int]
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
    # Post-mortem flight dump written because a monitor fired (None otherwise).
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

    # Legacy accessors (pre-event-schedule results had exactly one failure).

    @property
    def failed_link(self) -> Optional[tuple[int, int]]:
        """The first failed link, or ``None`` for an event-free run."""
        for event in self.events:
            if event.kind == "fail":
                return event.link
        return None

    @property
    def pre_failure_path(self) -> tuple[int, ...]:
        """Legacy alias for :attr:`initial_path`."""
        return self.initial_path


def make_protocol_factory(
    name: str,
    network: Network,
    rng_streams: RngStreams,
    topology: Topology,
    config: ExperimentConfig,
) -> Callable[[Node], object]:
    """Protocol constructor-by-name, sharing one RNG family per run."""
    dv_config = DistanceVectorConfig(infinity=config.dv_infinity)

    def factory(node: Node) -> object:
        if name == "rip":
            return RipProtocol(node, rng_streams, dv_config)
        if name == "rip-hd":
            from dataclasses import replace

            return RipProtocol(
                node, rng_streams, replace(dv_config, holddown=90.0)
            )
        if name == "dbf":
            return DbfProtocol(node, rng_streams, dv_config)
        if name == "bgp":
            return BgpProtocol(node, rng_streams, network, BgpConfig.standard())
        if name == "bgp3":
            return BgpProtocol(node, rng_streams, network, BgpConfig.fast())
        if name == "bgp-pd":
            cfg = BgpConfig(per_destination_mrai=True, label="bgp-pd")
            return BgpProtocol(node, rng_streams, network, cfg)
        if name == "bgp3-pd":
            cfg = BgpConfig(
                mrai_base=3.0, mrai_jitter=0.5, per_destination_mrai=True, label="bgp3-pd"
            )
            return BgpProtocol(node, rng_streams, network, cfg)
        if name == "bgp3-ssld":
            cfg = BgpConfig(
                mrai_base=3.0,
                mrai_jitter=0.5,
                sender_side_loop_detection=True,
                label="bgp3-ssld",
            )
            return BgpProtocol(node, rng_streams, network, cfg)
        if name == "bgp-ssld":
            cfg = BgpConfig(sender_side_loop_detection=True, label="bgp-ssld")
            return BgpProtocol(node, rng_streams, network, cfg)
        if name == "bgp-rfd":
            cfg = BgpConfig(damping=DampingConfig(), label="bgp-rfd")
            return BgpProtocol(node, rng_streams, network, cfg)
        if name == "bgp3-rfd":
            cfg = BgpConfig(
                mrai_base=3.0, mrai_jitter=0.5, damping=DampingConfig(), label="bgp3-rfd"
            )
            return BgpProtocol(node, rng_streams, network, cfg)
        if name == "dual":
            return DualProtocol(node, rng_streams, network)
        if name == "spf":
            return SpfProtocol(node, rng_streams)
        if name == "spf-slow":
            return SpfProtocol(node, rng_streams, SpfConfig(spf_delay=2.0, label="spf-slow"))
        if name == "spf-lfa":
            return SpfProtocol(
                node, rng_streams, SpfConfig(spf_delay=2.0, lfa=True, label="spf-lfa")
            )
        if name == "static":
            return StaticProtocol(node, rng_streams, topology)
        if name == "aodv":
            return AodvProtocol(node, rng_streams)
        if name == "dsr":
            return DsrProtocol(node, rng_streams)
        if name == "olsr":
            return OlsrProtocol(node, rng_streams)
        raise ValueError(f"unknown protocol {name!r}")

    return factory


def _pick_endpoints(
    rng: random.Random, rows: int, cols: int
) -> tuple[int, int]:
    """Random first-row and last-row routers (paper's attachment rule)."""
    sender_router = rng.randrange(0, cols)
    receiver_router = (rows - 1) * cols + rng.randrange(0, cols)
    return sender_router, receiver_router


def _pick_failed_link(
    rng: random.Random, path: list[int], sender: int, receiver: int
) -> tuple[int, int]:
    """Random mesh link on the shortest path (access links excluded)."""
    edges = [
        (path[i], path[i + 1])
        for i in range(len(path) - 1)
        if sender not in (path[i], path[i + 1])
        and receiver not in (path[i], path[i + 1])
    ]
    if not edges:
        raise ValueError("shortest path has no mesh links to fail")
    return rng.choice(edges)


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
    ``SingleLinkFailureDriver(plan.failed, plan.fail_at)``, which schedules
    the exact same engine events the pre-driver implementation did.

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
    detached before return, rings left readable for autopsies/timelines.
    ``dump_dir`` arms post-mortems: if any monitor fires, the recorder's
    rings are snapshotted to a versioned JSON dump there (a recorder is
    created on the fly when only ``dump_dir`` is given) and
    ``ScenarioResult.dump_path`` names the file.  Like ``obs``, recording is
    read-only and does not perturb results.

    ``live_log`` (a path or an open :class:`~repro.obs.live.RunEventLog`)
    streams progress records: single-process runs emit one heartbeat at
    each phase boundary (the log is written strictly *between*
    ``sim.run`` calls, so the event stream is untouched); sharded runs
    delegate to the coordinator's window-throttled heartbeats.  Metrics
    stay byte-identical either way (pinned by the transparency tests).
    """
    config = config or ExperimentConfig.quick()
    if config.shards > 1:
        # Delegate to the sharded runtime (repro.dist): same layout, same
        # schedule, byte-identical result — pinned by the differential suite.
        unsupported = {
            "monitors": monitors,
            "obs": obs,
            "recorder": recorder,
            "dump_dir": dump_dir,
            "driver_factory": driver_factory,
        }
        given = sorted(name for name, value in unsupported.items() if value is not None)
        if given:
            raise ValueError(
                f"sharded runs (shards={config.shards}) do not support "
                f"{', '.join(given)}; the offline merge re-derives the "
                "invariants it can (see docs/distributed.md)"
            )
        from ..dist.runner import run_scenario_sharded

        return run_scenario_sharded(
            protocol, degree, seed, config, live_log=live_log
        )
    if recorder is None and dump_dir is not None:
        recorder = FlightRecorder()
    if monitors is None and config.validate:
        from ..validation.monitors import MonitorSuite

        monitors = MonitorSuite()
    profiler = obs.profiler if obs is not None else NULL_PROFILER

    from ..obs.live import open_live_log

    log, owns_log = open_live_log(
        live_log,
        run="scenario",
        meta={"protocol": protocol, "degree": degree, "seed": seed},
    )
    log_started = time.perf_counter()

    def beat(phase: str, sim) -> None:
        """Phase-boundary heartbeat — written between sim.run calls only."""
        if log is not None:
            log.heartbeat(
                shard=0,
                clock=sim.now,
                events=sim.events_processed,
                wall_s=time.perf_counter() - log_started,
                phase=phase,
            )

    rng_streams = RngStreams(seed)
    scenario_rng = rng_streams.stream("scenario")

    with profiler.span("setup"):
        # --- topology with sender/receiver hosts attached -------------------
        topo = regular_mesh(config.rows, config.cols, degree)
        sender_router, receiver_router = _pick_endpoints(
            scenario_rng, config.rows, config.cols
        )
        sender = attach_host(topo, sender_router)
        receiver = attach_host(topo, receiver_router)

        pre_path = topo.shortest_path(sender, receiver)
        assert pre_path is not None, "mesh must be connected"
        failed = _pick_failed_link(scenario_rng, pre_path, sender, receiver)
        expected_final = topo.shortest_path(sender, receiver, exclude_link=failed)

        # --- live network ----------------------------------------------------
        sim = Simulator()
        bus = TraceBus(keep_routes=False, keep_links=False)
        if obs is not None:
            obs.attach(bus)
        if recorder is not None:
            recorder.attach(bus)
        network = Network(
            sim,
            topo,
            bus,
            queue_capacity=config.queue_capacity,
            record_paths=config.record_paths,
            # Monitors and the flight recorder want the hop-by-hop TTL view.
            record_forwards=monitors is not None or recorder is not None,
            priority_control=config.prioritize_control,
        )
        factory = make_protocol_factory(protocol, network, rng_streams, topo, config)
        network.attach_protocols(factory)

    with profiler.span("warmup", sim=sim):
        base = 0.0
        if config.cold_start:
            network.start_protocols()
            sim.run(until=config.cold_warmup)
            base = config.cold_warmup
        else:
            for node in network.iter_nodes():
                assert node.protocol is not None
                node.protocol.warm_start(topo)
    beat("warmup", sim)

    traffic_start = base + config.traffic_start
    fail_at = base + config.fail_time
    end_at = base + config.end_time

    # --- instrumentation ------------------------------------------------------
    tracker = ConvergenceTracker(bus, dest=receiver, src=sender)
    tracker.seed_from_network(network)
    net_watcher = NetworkConvergenceWatcher(bus)
    drop_counter = DropCounter(bus, window_start=fail_at)
    message_counter = MessageCounter(bus, window_start=fail_at)
    # Whole-run overhead for the MANET triple: NRL counts every control
    # packet the protocol ever sent, not just the post-failure window.
    overhead_counter = MessageCounter(bus)

    sink = PacketSink(flow_id=1, ttl_at_send=config.ttl)
    network.node(receiver).attach_app(sink)
    flow = FlowSpec(
        flow_id=1,
        src=sender,
        dst=receiver,
        rate_pps=config.rate_pps,
        start=traffic_start,
        stop=end_at,
        packet_bytes=config.packet_bytes,
        ttl=config.ttl,
    )
    source = CbrSource(sim, network, flow)
    source.start()

    detect_at = fail_at + config.detection_delay
    scheduler = LinkScheduler(sim, network, detection_delay=config.detection_delay)
    if driver_factory is None:
        driver: TopologyDriver = SingleLinkFailureDriver(failed, fail_at)
    else:
        driver = driver_factory(
            ScenarioPlan(
                topology=topo,
                sender=sender,
                receiver=receiver,
                pre_path=tuple(pre_path),
                failed=failed,
                fail_at=fail_at,
                detect_at=detect_at,
                end_at=end_at,
            )
        )
    scheduled = scheduler.run_driver(driver, until=end_at)
    first_at = scheduled[0].time if scheduled else fail_at
    detect_times = [
        e.time
        + (
            e.detection_delay
            if e.detection_delay is not None
            else config.detection_delay
        )
        for e in scheduled
    ]
    first_detect = detect_times[0] if detect_times else detect_at

    if monitors is not None:
        from ..validation.monitors import RunContext, settle_margin_for

        monitors.attach(
            RunContext(
                sim=sim,
                network=network,
                bus=bus,
                topology=topo,
                protocol=protocol,
                failed_links=tuple(
                    sorted({e.link_key for e in scheduled if e.kind == "fail"})
                ),
                detect_time=first_detect,
                end_time=end_at,
                infinity=(
                    config.dv_infinity
                    if protocol in ("rip", "rip-hd", "dbf")
                    else None
                ),
                settle_margin=settle_margin_for(protocol),
                # One CBR flow: the receiver is the only destination data
                # wants, which is what reactive protocols are judged on.
                active_dests=frozenset({receiver}),
            )
        )

    # --- run ------------------------------------------------------------------
    # The run is split at the same instants whether observed or not: repeated
    # ``run(until=...)`` calls form one contiguous timeline, so the event
    # order is identical to a single ``run(until=end_at)`` (the golden on/off
    # test pins this).
    with profiler.span("steady", sim=sim):
        sim.run(until=min(first_at, end_at))
    beat("steady", sim)
    with profiler.span("failure", sim=sim):
        sim.run(until=min(first_detect, end_at))
    beat("failure", sim)
    with profiler.span("convergence", sim=sim):
        sim.run(until=end_at)
    beat("convergence", sim)

    with profiler.span("drain", sim=sim):
        deliveries = sink.stats.deliveries
        waves = attribute_waves(detect_times, net_watcher.change_times, end_at)
        outcomes = tuple(
            TopologyEventOutcome(
                kind=e.kind,
                link=e.link_key,
                time=e.time,
                detect_time=dt,
                wave_start=w[0],
                wave_end=w[1],
            )
            for e, dt, w in zip(scheduled, detect_times, waves)
        )
        result = ScenarioResult(
            protocol=protocol,
            degree=degree,
            seed=seed,
            sender=sender,
            receiver=receiver,
            initial_path=tuple(pre_path),
            expected_final_path=tuple(expected_final) if expected_final else None,
            events=outcomes,
            sent=source.sent,
            delivered=sink.stats.delivered,
            drops_no_route=drop_counter.no_route,
            drops_ttl=drop_counter.ttl_expired,
            drops_link_down=drop_counter.link_down,
            drops_queue=drop_counter.queue_overflow,
            routing_convergence=net_watcher.convergence_time(first_detect),
            destination_convergence=tracker.routing_convergence_time(first_detect),
            forwarding_convergence=tracker.forwarding_convergence_delay(first_detect),
            converged_to_expected=(
                tracker.converged_to(tuple(expected_final)) if expected_final else False
            ),
            transient_path_count=len(tracker.transient_paths(first_at)),
            throughput=throughput_series(
                deliveries, traffic_start, end_at, origin=first_at
            ),
            delay=delay_series(deliveries, traffic_start, end_at, origin=first_at),
            messages=message_counter.messages,
            withdrawals=message_counter.withdrawals,
            reordering=analyze_reordering(deliveries),
            manet=analyze_manet(
                source.sent,
                deliveries,
                overhead_counter.messages,
                control_bytes=overhead_counter.bytes_sent,
            ),
        )
        if config.record_paths:
            steady_hops = len(pre_path) - 2  # forwarding hops on the original path
            result.loop_report = analyze_deliveries(
                deliveries, shortest_hops=steady_hops
            )
        if monitors is not None:
            result.violations = tuple(str(v) for v in monitors.finalize())
            result.monitor_skips = dict(monitors.skips)
        if result.violations and recorder is not None and dump_dir is not None:
            os.makedirs(dump_dir, exist_ok=True)
            dump = build_dump(
                recorder,
                meta={
                    "protocol": protocol,
                    "degree": degree,
                    "seed": seed,
                    "sender": sender,
                    "receiver": receiver,
                    "failed_link": list(failed),
                    "fail_time": fail_at,
                    "detect_time": first_detect,
                    "end_time": end_at,
                    "events": [
                        [e.kind, e.a, e.b, e.time] for e in scheduled
                    ],
                },
                violations=result.violations,
                counters=bus.counters.as_dict(),
            )
            path = os.path.join(
                dump_dir, f"flight-{protocol}-d{degree}-s{seed}.json"
            )
            save_dump(dump, path)
            result.dump_path = path
    if recorder is not None:
        recorder.close()
    drop_counter.close()
    message_counter.close()
    overhead_counter.close()
    if obs is not None:
        obs.finalize(sim=sim, network=network, bus=bus)
    if log is not None:
        for finding in result.violations:
            log.violation(str(finding))
        log.end(ok=not result.violations)
        if owns_log:
            log.close()
    return result
