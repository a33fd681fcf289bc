"""One shard of a sharded scenario: sub-topology, protocols, collectors.

A :class:`ShardHost` owns the nodes its shard was assigned plus *ghost*
copies of the far endpoints of cut links.  Ghosts carry no protocol — they
exist so the owned side of each cut link has a real :class:`~repro.net.link.
Link` to serialize onto; the outbound direction is replaced by a
:class:`~repro.dist.proxy.BoundaryChannel` that relays instead of
delivering, and reliable-channel messages are captured by the link's
``message_tap``.  Everything else — protocol construction order, warm
start, collector wiring — replicates ``run_scenario`` exactly, which is
what makes the sharded run byte-identical (see docs/distributed.md).
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import time as _wallclock
from dataclasses import dataclass, field, replace
from typing import Optional

from ..experiments.config import ExperimentConfig
from ..metrics.counters import Tally, tally
from ..net.channels import ReliableChannel
from ..net.dynamics import LinkEvent, LinkScheduler, ScriptedDriver
from ..net.network import Network
from ..obs.flight import FlightRecorder
from ..routing.catalog import build_factory
from ..sim.engine import EventHandle, Simulator
from ..sim.rng import RngStreams
from ..sim.tracing import TraceBus
from ..sim.units import BITS_PER_BYTE
from ..topology.graph import Topology
from ..traffic.cbr import CbrSource
from ..traffic.flows import FlowSpec
from ..traffic.sink import PacketSink
from .proxy import (
    BoundaryChannel,
    MessageRelay,
    Relay,
    ShardHeartbeat,
    make_message_tap,
)

__all__ = ["ShardPlan", "ShardOutput", "ShardHost"]

#: Fault-injection hooks (tests only): "<shard_index>:<window_time>" — the
#: named shard hangs / dies the first time it is asked to run a window
#: reaching that virtual time.  Same idiom as REPRO_TEST_HANG_SEEDS in the
#: sweep runner.
HANG_ENV = "REPRO_TEST_SHARD_HANG"
DIE_ENV = "REPRO_TEST_SHARD_DIE"


@dataclass(frozen=True)
class ShardPlan:
    """Everything one worker needs to build its shard (picklable)."""

    shard_index: int
    n_shards: int
    protocol: str
    seed: int
    config: ExperimentConfig
    #: The FULL topology: warm starts need global shortest paths.
    topology: Topology
    #: node -> shard for every node (relay routing + ownership test).
    assignment: dict[int, int]
    cut_links: tuple[tuple[int, int], ...]
    sender: int
    receiver: int
    #: Full event schedule; each worker keeps the events whose link exists
    #: in its sub-topology (cut-link events execute in both shards).
    events: tuple[LinkEvent, ...]
    traffic_start: float
    #: Post-failure counting window start (the event clock's ``first_at``).
    window_start: float
    end_at: float
    #: Restrict warm start to these destinations (BGP, 10k-node runs);
    #: None = full warm start, byte-identical to single-process.
    warm_dests: Optional[tuple[int, ...]] = None
    #: Keep every trace record on a FlightRecorder, as a recorded run does.
    record: bool = False


@dataclass
class ShardOutput:
    """Everything a shard measured, shipped to the coordinator at the end."""

    shard_index: int
    sent: int = 0
    deliveries: list = field(default_factory=list)
    #: Drops and messages from the window start on (``fold_result``'s window).
    window: Tally = Tally()
    #: Drops and messages from warm start on (``fold_result``'s run).
    run: Tally = Tally()
    #: RouteChangeRecords in publish order (the shard-local total order).
    route_records: list = field(default_factory=list)
    #: Owned node -> full FIB copy, post warm start (convergence-tracker
    #: seed and fib-loop replay).
    initial_fibs: dict[int, dict[int, Optional[int]]] = field(default_factory=dict)
    #: Data packets physically inside this shard's links at end of run.
    end_occupancy_data: int = 0
    #: Data packets parked in owned protocols' discovery buffers.
    pending_data: int = 0
    #: Every trace record of the shard, warm-start installs included, by
    #: kind (the plan's ``record`` only).
    streams: Optional[dict[str, list]] = None


class ShardHost:
    """Builds and drives one shard's simulator."""

    def __init__(self, plan: ShardPlan) -> None:
        self.plan = plan
        config = plan.config
        topo = plan.topology
        owned_set = {
            node for node, shard in plan.assignment.items()
            if shard == plan.shard_index
        }
        self.owned = sorted(owned_set)

        # --- sub-topology: owned nodes + ghost far-endpoints of cut links ---
        sub = Topology(name=f"{topo.name}-shard{plan.shard_index}")
        members: set[int] = set(owned_set)
        kept = []
        for key, spec in sorted(topo.links.items()):
            if key[0] in owned_set or key[1] in owned_set:
                members.update(key)
                kept.append(spec)
        for node in sorted(members):
            sub.add_node(node, topo.positions.get(node))
        for spec in kept:
            sub.add_link(spec)
        self.ghosts = sorted(members - owned_set)
        self.sub = sub

        # --- live network (same construction order as run_scenario) --------
        self.sim = Simulator()
        self.bus = TraceBus()
        self.output = out = ShardOutput(shard_index=plan.shard_index)
        if plan.record:
            # Attached before warm start, as ScenarioRun attaches one.
            recorder = FlightRecorder()
            recorder.attach(self.bus)
            out.streams = recorder.streams
        self.network = Network(
            self.sim,
            sub,
            self.bus,
            queue_capacity=config.queue_capacity,
            record_paths=config.record_paths,
            record_forwards=plan.record,
            priority_control=config.prioritize_control,
        )

        # --- boundary stubs on cut links ------------------------------------
        self.outbox: list[Relay] = []
        self._capture_seq = itertools.count()
        fail_times: dict[tuple[int, int], list[float]] = {}
        for event in plan.events:
            if event.kind == "fail":
                fail_times.setdefault(event.link_key, []).append(event.time)
        for key in plan.cut_links:
            if not sub.has_link(*key):
                continue  # cut between two other shards
            a, b = key
            src, dst = (a, b) if a in owned_set else (b, a)
            link = self.network.link(a, b)
            outages = tuple(sorted(fail_times.get(key, ())))
            link._channels[src] = BoundaryChannel(
                self.sim, link, src, dst, self.outbox, outages, self._capture_seq
            )
            # Node.add_link cached the old channel's bound send; re-point it.
            self.network.nodes[src]._tx[dst] = link.sender_from(src)
            link.message_tap = make_message_tap(
                self.sim, key, dst, self.outbox, outages, self._capture_seq
            )

        # --- delivery sequencer at cut-adjacent nodes -----------------------
        # Same-instant arrivals at a node race between injected relays and
        # internal traffic; the single-process engine orders them by
        # ascending (transmission start, sender).  Gates on every channel
        # into a cut-adjacent node intercept arrivals so the slot can be
        # replayed in that canonical order (see docs/distributed.md).
        self._relay_slots: dict[
            tuple[float, int], list[tuple[Relay, EventHandle]]
        ] = {}
        gated: set[int] = set()
        for key in plan.cut_links:
            if sub.has_link(*key):
                a, b = key
                gated.add(a if a in owned_set else b)
        self._gated = gated
        for node_id in sorted(gated):
            for nbr in sub.neighbors(node_id):
                link = self.network.link(nbr, node_id)
                link._channels[nbr].arrival_gate = self._packet_gate
                # Set at link level (not per session): reliable sessions may
                # be opened at any point and inherit the gate at creation.
                link.reliable_gate = self._message_gate

        # --- protocols on owned nodes only (ghosts stay protocol-less) -----
        rng_streams = RngStreams(plan.seed)
        factory = build_factory(
            plan.protocol, self.network, rng_streams, topo, config.dv_infinity
        )
        for node_id in self.owned:
            factory(self.network.node(node_id))  # base ctor self-attaches
        for node_id in self.owned:
            protocol = self.network.node(node_id).protocol
            assert protocol is not None
            if plan.warm_dests is not None:
                protocol.warm_start(topo, dests=plan.warm_dests)
            else:
                protocol.warm_start(topo)

        # --- collectors (after warm start, exactly like run_scenario) ------
        for node_id in self.owned:
            out.initial_fibs[node_id] = dict(self.network.node(node_id).fib)
        self.bus.subscribe("route", out.route_records.append)
        self._warm = tally(self.network)
        #: The tally just before ``plan.window_start``, once a window reaches it.
        self._window_open: Optional[Tally] = None

        # --- traffic --------------------------------------------------------
        self.sink: Optional[PacketSink] = None
        if plan.receiver in owned_set:
            self.sink = PacketSink(flow_id=1, ttl_at_send=config.ttl)
            self.network.node(plan.receiver).attach_app(self.sink)
        self.source: Optional[CbrSource] = None
        if plan.sender in owned_set:
            flow = FlowSpec(
                flow_id=1,
                src=plan.sender,
                dst=plan.receiver,
                rate_pps=config.rate_pps,
                start=plan.traffic_start,
                stop=plan.end_at,
                packet_bytes=config.packet_bytes,
                ttl=config.ttl,
            )
            self.source = CbrSource(self.sim, self.network, flow)
            self.source.start()

        # --- topology events ------------------------------------------------
        scheduler = LinkScheduler(
            self.sim, self.network, detection_delay=config.detection_delay
        )
        local_events = tuple(
            replace(event)  # private copies: LinkEvent is mutable
            for event in plan.events
            if sub.has_link(event.a, event.b)
        )
        scheduler.run_driver(ScriptedDriver(local_events), until=plan.end_at)

        # --- progress accounting (heartbeats) -------------------------------
        # Cumulative counters harvested into a ShardHeartbeat on every
        # window; pure bookkeeping outside the engine, so an instrumented
        # run stays byte-identical (the transparency tests pin this).
        self._relays_out = 0
        self._relays_in = 0
        self._busy_s = 0.0
        self._created_wall = _wallclock.perf_counter()

    # ----------------------------------------------------------- window API

    def peek_time(self) -> Optional[float]:
        return self.sim.peek_time()

    def advance(
        self, barrier: float, inbound: list[Relay]
    ) -> tuple[list[Relay], ShardHeartbeat, Optional[float]]:
        """One window: inject ``inbound``, run all events at or before
        ``barrier``; drain relays + heartbeat + the next pending event time.

        Injecting before the run schedules the relays at the previous
        barrier's clock, as an injection between windows would.  The window
        that reaches ``plan.window_start`` stops just short of it once to
        tally what came before, as a single-process run does.
        """
        self._inject(inbound)
        t0 = _wallclock.perf_counter()
        if self._window_open is None and barrier >= self.plan.window_start:
            self.sim.run(until=math.nextafter(self.plan.window_start, -math.inf))
            self._window_open = tally(self.network)
        self.sim.run(until=barrier)
        self._busy_s += _wallclock.perf_counter() - t0
        out = list(self.outbox)
        self.outbox.clear()
        self._relays_out += len(out)
        heartbeat = ShardHeartbeat(
            shard=self.plan.shard_index,
            barrier=barrier,
            clock=self.sim.now,
            events=self.sim.events_processed,
            relays_out=self._relays_out,
            relays_in=self._relays_in,
            busy_s=self._busy_s,
            wall_s=_wallclock.perf_counter() - self._created_wall,
        )
        return out, heartbeat, self.sim.peek_time()

    def _inject(self, relays: list[Relay]) -> None:
        """Register relayed cross-shard arrivals (already coordinator-sorted).

        Each relay is scheduled through the sequencer and indexed by its
        ``(arrive_at, dst)`` slot, so whichever delivery fires first at that
        instant — the relay's own event or an internal arrival's gate —
        replays the whole slot in canonical order.
        """
        self._relays_in += len(relays)
        for relay in relays:
            handle = self.sim.schedule_at(relay.arrive_at, self._deliver_relay, relay)
            slot = self._relay_slots.setdefault(
                (relay.arrive_at, relay.dst), []
            )
            slot.append((relay, handle))

    # ----------------------------------------------------- delivery sequencer

    def _packet_gate(self, channel, packet) -> None:
        key = (self.sim.now, channel.dst)
        if key in self._relay_slots:
            self._drain_slot(key, ("packet", channel, packet))
        else:
            channel.deliver_now(packet)

    def _message_gate(self, channel, payload, tx_start) -> None:
        if channel.dst not in self._gated:  # session toward a ghost
            channel.deliver_now(payload)
            return
        key = (self.sim.now, channel.dst)
        if key in self._relay_slots:
            self._drain_slot(key, ("message", channel, (payload, tx_start)))
        else:
            channel.deliver_now(payload)

    def _deliver_relay(self, relay: Relay) -> None:
        self._drain_slot((relay.arrive_at, relay.dst), None)

    def _drain_slot(self, key: tuple[float, int], trigger) -> None:
        """Deliver every arrival bound for ``(t, node)`` in canonical order.

        Canonical order is ascending ``(transmission start, sender)`` — the
        order the single-process engine produces for same-instant arrivals.
        Pending competitors (relays, propagating packets, reliable-channel
        messages) are cancelled and delivered inline.  Transmission starts
        are compared at nanosecond resolution: the same physical instant
        reached along different float paths must still tie, while genuinely
        distinct starts differ by at least a serialization time (>> 1 ns).
        """
        t, node_id = key
        node = self.network.node(node_id)
        entries: list[tuple[int, int, int, str, object, object]] = []

        def add(tx_start, sender, kind, channel, payload) -> None:
            entries.append(
                (round(tx_start * 1e9), sender, len(entries), kind, channel, payload)
            )

        if trigger is not None:
            kind, channel, obj = trigger
            if kind == "packet":
                tx = (obj.size_bytes * BITS_PER_BYTE) / channel._bandwidth
                add(t - channel._prop_delay - tx, channel.src, kind, channel, obj)
            else:
                payload, tx_start = obj
                add(tx_start, channel.src, kind, channel, payload)
        for relay, handle in self._relay_slots.pop(key, ()):
            if handle.pending:
                handle.cancel()
            add(relay.tx_start, relay.src, "relay", None, relay)
        for nbr in self.sub.neighbors(node_id):
            link = self.network.link(nbr, node_id)
            channel = link._channels[nbr]
            # Arrivals on one channel fire in launch order, so at most the
            # oldest in-flight packet is due now.
            flight = channel._in_flight
            if flight and flight[0].time == t:
                handle = flight.pop(0)
                handle.cancel()
                packet = handle.args[0]
                tx = (packet.size_bytes * BITS_PER_BYTE) / channel._bandwidth
                add(
                    t - channel._prop_delay - tx,
                    channel.src,
                    "packet",
                    channel,
                    packet,
                )
            for listener in link.fail_listeners:
                owner = getattr(listener, "__self__", None)
                if not isinstance(owner, ReliableChannel) or owner.dst != node_id:
                    continue
                for handle in owner._in_flight:
                    if handle.pending and handle.time == t:
                        handle.cancel()
                        payload, tx_start = handle.args
                        add(tx_start, owner.src, "message", owner, payload)

        entries.sort(key=lambda e: e[:3])
        for _, _, _, kind, channel, payload in entries:
            if kind == "relay":
                relay = payload
                obj = pickle.loads(relay.blob)
                if isinstance(relay, MessageRelay):
                    protocol = node.protocol
                    assert protocol is not None, "message relayed to a ghost"
                    # Mirror of SessionProtocol._deliver_to: sessions hand
                    # the payload straight to the peer with attribution.
                    protocol.apply_message(obj, relay.src)
                else:
                    # Mirror of _Channel._arrive -> Node.receive.
                    node.receive(obj, relay.src)
            else:
                channel.deliver_now(payload)

    def finalize(self, inbound: list[Relay]) -> ShardOutput:
        """Inject the last window's relays, ship what the shard measured and
        end the shard's run (its network cannot run again)."""
        self._inject(inbound)
        out = self.output
        if self.source is not None:
            out.sent = self.source.sent
        if self.sink is not None:
            out.deliveries = list(self.sink.stats.deliveries)
        end = tally(self.network)
        # No window reached the start: the whole run came before it.
        out.window = Tally() if self._window_open is None else end - self._window_open
        out.run = end - self._warm
        out.end_occupancy_data = sum(
            link.occupancy(data_only=True) for link in self.network.iter_links()
        )
        out.pending_data = sum(
            self.network.node(node_id).protocol.pending_data_packets()
            for node_id in self.owned
        )
        # End the shard's run as ScenarioRun.to_result ends one: cut the
        # reference cycles so the shard is freed by reference count.
        self._relay_slots.clear()
        self.sim.close()
        self.network.close()
        self.bus.close()
        return out


def maybe_fault(shard_index: int, barrier: float) -> None:
    """Honor the REPRO_TEST_SHARD_* fault hooks (process workers only)."""
    for env, action in ((HANG_ENV, "hang"), (DIE_ENV, "die")):
        raw = os.environ.get(env)
        if not raw:
            continue
        target, _, threshold = raw.partition(":")
        if int(target) == shard_index and barrier >= float(threshold):
            if action == "hang":
                _wallclock.sleep(3600.0)
            else:
                os._exit(43)
