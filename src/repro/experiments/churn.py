"""Mobility-churn scenarios: the paper's measurement harness on a moving field.

Where :func:`~repro.experiments.scenario.run_scenario` perturbs a static
mesh with a driver-supplied event schedule, this module replaces the mesh
itself: nodes live in a metric space, a mobility model moves them, and the
link schedule falls out of radio range (:class:`~repro.mobility.
MobilityDriver`).  Everything downstream — CBR flow, convergence tracking,
monitors, flight recording, :class:`~repro.experiments.scenario.
ScenarioResult` — is the same harness, so churn runs are directly
comparable to single-failure runs.

The live network is built over the *union* of every link that ever exists
(a network cannot grow links mid-run); links outside the initial
connectivity start down, and protocols are warm-started on the t=0
topology only.
"""

from __future__ import annotations

import os
import random
import time as _time
from typing import Optional

from ..metrics.convergence import (
    ConvergenceTracker,
    NetworkConvergenceWatcher,
    attribute_waves,
)
from ..metrics.counters import DropCounter, MessageCounter
from ..metrics.manet import analyze_manet
from ..metrics.reordering import analyze_reordering
from ..metrics.timeseries import delay_series, throughput_series
from ..mobility import GaussMarkov, ManhattanGrid, MobilityDriver, RandomWaypoint
from ..mobility.base import MobilityModel
from ..net.dynamics import LinkScheduler
from ..net.network import Network
from ..obs.flight import FlightRecorder, build_dump, save_dump
from ..sim.engine import Simulator
from ..sim.rng import RngStreams
from ..sim.tracing import TraceBus
from ..topology.spatial import derive_topology
from ..traffic.cbr import CbrSource
from ..traffic.flows import FlowSpec
from ..traffic.sink import PacketSink
from .config import ChurnConfig, ExperimentConfig
from .scenario import ScenarioResult, TopologyEventOutcome, make_protocol_factory

__all__ = ["make_mobility_model", "run_churn_scenario"]


def make_mobility_model(churn: ChurnConfig, rng: random.Random) -> MobilityModel:
    """Instantiate the configured mobility model from one RNG stream."""
    if churn.model == "waypoint":
        return RandomWaypoint(
            churn.n_nodes,
            churn.area,
            speed=(churn.speed_min, churn.speed_max),
            pause=churn.pause,
            rng=rng,
        )
    if churn.model == "gauss-markov":
        return GaussMarkov(
            churn.n_nodes,
            churn.area,
            mean_speed=churn.mean_speed,
            alpha=churn.alpha,
            rng=rng,
        )
    if churn.model == "manhattan":
        return ManhattanGrid(
            churn.n_nodes,
            churn.area,
            blocks=churn.blocks,
            speed=(churn.speed_min, churn.speed_max),
            rng=rng,
        )
    raise ValueError(f"unknown mobility model {churn.model!r}")


def _pick_flow(
    rng: random.Random, schedule, n_nodes: int
) -> tuple[int, int]:
    """Deterministic sender/receiver pair, connected at t=0."""
    pairs = [
        (a, b)
        for a in range(n_nodes)
        for b in range(a + 1, n_nodes)
        if schedule.connected_at_start(a, b)
    ]
    if not pairs:
        raise ValueError(
            "no node pair is connected at t=0; increase radio_range or density"
        )
    return rng.choice(pairs)


def run_churn_scenario(
    protocol: str,
    seed: int,
    config: ExperimentConfig,
    monitors: Optional[object] = None,
    recorder: Optional[FlightRecorder] = None,
    dump_dir: Optional[str] = None,
    live_log=None,
) -> ScenarioResult:
    """Run one mobility-churn experiment; ``config.churn`` must be set.

    Movement starts generating link events at ``config.fail_time`` (the
    field is static during warm-up and steady state, like the paper's
    pre-failure phase) and the run ends at ``config.end_time``.  The result
    reports ``degree=0`` — a spatial field has no fixed mesh degree.

    ``live_log`` streams phase-boundary heartbeats exactly like
    :func:`~repro.experiments.scenario.run_scenario`: records are written
    strictly between ``sim.run`` calls, so metrics are byte-identical with
    the log on or off.
    """
    if config.churn is None:
        raise ValueError("run_churn_scenario requires config.churn")
    churn = config.churn
    if recorder is None and dump_dir is not None:
        recorder = FlightRecorder()
    if monitors is None and config.validate:
        from ..validation.monitors import MonitorSuite

        monitors = MonitorSuite()

    from ..obs.live import open_live_log

    log, owns_log = open_live_log(
        live_log,
        run="churn",
        meta={
            "protocol": protocol,
            "seed": seed,
            "model": churn.model,
            "n_nodes": churn.n_nodes,
        },
    )
    log_started = _time.perf_counter()

    def beat(phase: str) -> None:
        if log is not None:
            log.heartbeat(
                shard=0,
                clock=sim.now,
                events=sim.events_processed,
                wall_s=_time.perf_counter() - log_started,
                phase=phase,
            )

    rng_streams = RngStreams(seed)
    model = make_mobility_model(churn, rng_streams.stream("mobility"))
    driver = MobilityDriver(
        model,
        radio_range=churn.radio_range,
        step=churn.step,
        start=config.fail_time,
    )
    end_at = config.end_time
    # Movement (and thus link churn) stops ``settle_time`` seconds early so
    # the final stretch of the run can quiesce for oracle comparison.
    schedule = driver.build(max(config.fail_time, end_at - churn.settle_time))
    sender, receiver = _pick_flow(
        rng_streams.stream("scenario"), schedule, churn.n_nodes
    )
    initial_topo = derive_topology(
        schedule.initial_positions, churn.radio_range, name="mobility-t0"
    )
    pre_path = initial_topo.shortest_path(sender, receiver)
    assert pre_path is not None, "flow endpoints are t=0 connected"

    sim = Simulator()
    bus = TraceBus(keep_routes=False, keep_links=False)
    if recorder is not None:
        recorder.attach(bus)
    network = Network(
        sim,
        schedule.topology,
        bus,
        queue_capacity=config.queue_capacity,
        record_paths=config.record_paths,
        record_forwards=monitors is not None or recorder is not None,
        priority_control=config.prioritize_control,
    )
    factory = make_protocol_factory(
        protocol, network, rng_streams, initial_topo, config
    )
    network.attach_protocols(factory)
    scheduler = LinkScheduler(
        sim, network, detection_delay=config.detection_delay
    )
    scheduler.take_down_initially(schedule.initially_down)
    for node in network.iter_nodes():
        assert node.protocol is not None
        node.protocol.warm_start(initial_topo)
    scheduled = scheduler.load(schedule.events)
    detect_times = [
        e.time
        + (
            e.detection_delay
            if e.detection_delay is not None
            else config.detection_delay
        )
        for e in scheduled
    ]
    first_at = scheduled[0].time if scheduled else config.fail_time
    first_detect = (
        detect_times[0] if detect_times else config.fail_time + config.detection_delay
    )

    tracker = ConvergenceTracker(bus, dest=receiver, src=sender)
    tracker.seed_from_network(network)
    net_watcher = NetworkConvergenceWatcher(bus)
    drop_counter = DropCounter(bus, window_start=first_at)
    message_counter = MessageCounter(bus, window_start=first_at)
    # Whole-run overhead for the MANET triple (NRL is not windowed).
    overhead_counter = MessageCounter(bus)

    sink = PacketSink(flow_id=1, ttl_at_send=config.ttl)
    network.node(receiver).attach_app(sink)
    flow = FlowSpec(
        flow_id=1,
        src=sender,
        dst=receiver,
        rate_pps=config.rate_pps,
        start=config.traffic_start,
        stop=end_at,
        packet_bytes=config.packet_bytes,
        ttl=config.ttl,
    )
    source = CbrSource(sim, network, flow)
    source.start()

    if monitors is not None:
        from ..validation.monitors import RunContext, settle_margin_for

        monitors.attach(
            RunContext(
                sim=sim,
                network=network,
                bus=bus,
                topology=schedule.topology,
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
                active_dests=frozenset({receiver}),
                # Link restores legitimately leave reactive routes longer
                # than optimal (a working route is never re-discovered), so
                # churn runs check validity/loop-freedom, not exact costs.
                reactive_strict=False,
            )
        )

    # Split at the same instants run_scenario uses; repeated run(until=...)
    # calls are contiguous (pinned by the engine tests), so the event order
    # matches a single run(until=end_at) and the beats cost nothing.
    sim.run(until=min(first_at, end_at))
    beat("steady")
    sim.run(until=min(first_detect, end_at))
    beat("churn")
    sim.run(until=end_at)
    beat("settle")

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
        degree=0,
        seed=seed,
        sender=sender,
        receiver=receiver,
        initial_path=tuple(pre_path),
        expected_final_path=None,
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
        converged_to_expected=False,
        transient_path_count=len(tracker.transient_paths(first_at)),
        throughput=throughput_series(
            deliveries, config.traffic_start, end_at, origin=first_at
        ),
        delay=delay_series(
            deliveries, config.traffic_start, end_at, origin=first_at
        ),
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
    if monitors is not None:
        result.violations = tuple(str(v) for v in monitors.finalize())
        result.monitor_skips = dict(monitors.skips)
    if result.violations and recorder is not None and dump_dir is not None:
        os.makedirs(dump_dir, exist_ok=True)
        dump = build_dump(
            recorder,
            meta={
                "protocol": protocol,
                "seed": seed,
                "sender": sender,
                "receiver": receiver,
                "mobility_model": churn.model,
                "n_nodes": churn.n_nodes,
                "radio_range": churn.radio_range,
                "end_time": end_at,
                "events": [[e.kind, e.a, e.b, e.time] for e in scheduled],
            },
            violations=result.violations,
            counters=bus.counters.as_dict(),
        )
        path = os.path.join(dump_dir, f"flight-churn-{protocol}-s{seed}.json")
        save_dump(dump, path)
        result.dump_path = path
    if recorder is not None:
        recorder.close()
    drop_counter.close()
    message_counter.close()
    overhead_counter.close()
    if log is not None:
        for finding in result.violations:
            log.violation(str(finding))
        log.end(ok=not result.violations)
        if owns_log:
            log.close()
    return result
