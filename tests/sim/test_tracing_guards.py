"""Guard-contract tests for the per-kind TraceBus hot path.

The load-bearing regression here: with no subscribers, pushing traffic
through a live network must perform *zero* ``publish`` calls — producers
check the ``wants_*`` guard before constructing a record, so publishes are
a proxy for record allocations.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import run_scenario
from repro.net.network import Network
from repro.net.packet import Packet
from repro.obs.flight import FlightRecorder
from repro.routing.spf import SpfProtocol
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.tracing import (
    TRACE_KINDS,
    LinkEventRecord,
    MessageRecord,
    PacketRecord,
    RouteChangeRecord,
    TraceBus,
    TraceCounters,
)
from repro.topology import generators


class CountingBus(TraceBus):
    """TraceBus that counts every publish call (i.e. record construction)."""

    def __init__(self) -> None:
        super().__init__()
        self.publish_count = 0

    def publish(self, record: object) -> None:
        self.publish_count += 1
        super().publish(record)


def _push_traffic(bus: TraceBus, n_packets: int = 20) -> Simulator:
    """Line network, FIBs set by hand, CBR-ish burst end to end."""
    sim = Simulator()
    net = Network(sim, generators.line(4), bus)
    for node in net.iter_nodes():
        if node.id < 3:
            node.set_next_hop(3, node.id + 1)
    for i in range(n_packets):
        sim.schedule_at(
            i * 0.01, lambda: net.node(0).originate(Packet(src=0, dst=3))
        )
    sim.run()
    assert net.node(3).delivered == n_packets
    return sim


class TestZeroAllocationFastPath:
    def test_untraced_run_never_publishes(self):
        bus = CountingBus()
        _push_traffic(bus)
        assert bus.publish_count == 0

    @pytest.mark.parametrize("shards", [1, 2])
    def test_unobserved_scenario_publishes_route_records_only(self, monkeypatch, shards):
        """Drops and messages are counted off the always-on counters, so a
        plain run (and each local shard of a sharded one) builds no packet
        or message record: the route stream feeds the convergence clocks."""
        published = Counter()

        class KindCountingBus(TraceBus):
            def publish(self, record: object) -> None:
                published[type(record)] += 1
                super().publish(record)

        monkeypatch.setattr("repro.experiments.scenario.TraceBus", KindCountingBus)
        monkeypatch.setattr("repro.dist.worker.TraceBus", KindCountingBus)
        config = ExperimentConfig.quick().with_(
            rate_pps=400.0, post_fail_window=15.0, shards=shards
        )
        result = run_scenario("dbf", 3, 1, config)
        assert result.sent > 0 and result.messages > 0
        assert published[PacketRecord] == published[MessageRecord] == 0
        assert published[RouteChangeRecord] > 0

    def test_untraced_run_still_counts(self):
        bus = CountingBus()
        _push_traffic(bus, n_packets=20)
        assert bus.counters.sends == 20
        assert bus.counters.delivers == 20
        assert bus.counters.forwards == 20 * 2  # two relay hops on the line
        assert bus.counters.route_changes == 3  # the hand-set FIB entries
        assert bus.counters.drops == 0

    def test_subscriber_turns_the_records_back_on(self):
        bus = CountingBus()
        seen = []
        bus.subscribe("packet", seen.append)
        _push_traffic(bus, n_packets=5)
        assert bus.publish_count > 0
        assert len(seen) == bus.publish_count
        assert all(isinstance(r, PacketRecord) for r in seen)

    def test_retention_alone_turns_the_records_back_on(self):
        """A flight recorder, the one record store, is a subscriber like any
        other: it alone turns records on, and keeps each one published."""
        bus = CountingBus()
        recorder = FlightRecorder()
        recorder.attach(bus)
        _push_traffic(bus, n_packets=5)
        assert recorder.streams["packet"]
        assert bus.publish_count == sum(map(len, recorder.streams.values()))

    def test_unobserved_link_flap_never_publishes(self):
        """Link records obey the guard too: a fully quiet bus sees zero
        publishes even across a fail/restore cycle (the counters still
        count both transitions)."""
        from repro.net.dynamics import LinkScheduler

        bus = CountingBus()
        sim = Simulator()
        net = Network(sim, generators.line(4), bus)
        injector = LinkScheduler(sim, net, detection_delay=0.05)
        injector.fail_link(1, 2, at=1.0)
        injector.restore_link(1, 2, at=2.0)
        sim.run(until=3.0)
        assert bus.counters.link_events == 2
        assert bus.publish_count == 0

    def test_subscribed_link_flap_publishes_both_transitions(self):
        from repro.net.dynamics import LinkScheduler

        bus = CountingBus()
        seen = []
        bus.subscribe("link", seen.append)
        sim = Simulator()
        net = Network(sim, generators.line(4), bus)
        injector = LinkScheduler(sim, net, detection_delay=0.05)
        injector.fail_link(1, 2, at=1.0)
        injector.restore_link(1, 2, at=2.0)
        sim.run(until=3.0)
        assert [r.up for r in seen] == [False, True]
        assert bus.publish_count == 2


def guards(bus: TraceBus) -> dict[str, bool]:
    return {kind: getattr(bus, f"wants_{kind}") for kind in TRACE_KINDS}


class TestWantsGuards:
    def test_a_bus_with_no_subscriber_wants_nothing(self):
        """The bus keeps nothing, so neither a fresh bus nor a network's
        default one asks any producer for a record, warm start or not."""
        assert not any(guards(TraceBus()).values())
        topo = generators.ring(4)
        net = Network(Simulator(), topo)
        assert not any(guards(net.bus).values())
        net.attach_protocols(lambda node: SpfProtocol(node, RngStreams(1)))
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        assert net.bus.counters.route_changes > 0
        assert not any(guards(net.bus).values())

    def test_link_guard_follows_retention_and_subscription(self):
        bus = TraceBus()
        assert not bus.wants_link  # nothing would observe a link record
        handler = lambda record: None  # noqa: E731
        bus.subscribe("link", handler)
        assert bus.wants_link
        bus.unsubscribe("link", handler)
        assert not bus.wants_link
        with FlightRecorder() as recorder:  # retention is a subscriber too
            recorder.attach(bus)
            assert bus.wants_link
        assert not bus.wants_link

    @pytest.mark.parametrize("kind", TRACE_KINDS)
    def test_wants_tracks_subscriptions(self, kind):
        bus = TraceBus()
        bus.subscribe(kind, lambda record: None)
        assert guards(bus) == {k: k == kind for k in TRACE_KINDS}

    def test_unsubscribe_releases_only_that_handler(self):
        bus = TraceBus()
        first, second = [], []
        bus.subscribe("packet", first.append)
        bus.subscribe("packet", second.append)
        bus.unsubscribe("packet", first.append)
        assert bus.wants_packet  # the survivor keeps the guard up
        bus.publish(PacketRecord(time=0.0, kind="send", packet_id=1, node=0, flow_id=0, ttl=64))
        assert (len(first), len(second)) == (0, 1)
        with pytest.raises(ValueError):
            bus.unsubscribe("packet", first.append)

    def test_subscribe_rejects_unknown_kind(self):
        bus = TraceBus()
        with pytest.raises(ValueError):
            bus.subscribe("quic", lambda record: None)

    def test_publish_routes_each_kind_to_its_subscribers(self):
        bus = TraceBus()
        by_kind = {kind: [] for kind in TRACE_KINDS}
        for kind in TRACE_KINDS:
            bus.subscribe(kind, by_kind[kind].append)
        bus.publish(PacketRecord(time=0.0, kind="send", packet_id=1, node=0, flow_id=0, ttl=64))
        bus.publish(LinkEventRecord(time=0.0, node_a=0, node_b=1, up=False))
        bus.publish(MessageRecord(time=0.0, sender=0, receiver=1, protocol="rip", n_routes=1))
        assert [len(by_kind[k]) for k in TRACE_KINDS] == [1, 0, 1, 1]


class TestTraceCounters:
    def test_reset_zeroes_everything(self):
        counters = TraceCounters()
        counters.sends = 5
        counters.drops = 2
        counters.reset()
        assert all(v == 0 for v in counters.as_dict().values())

    def test_as_dict_names_every_counter(self):
        assert set(TraceCounters().as_dict()) == {
            "sends",
            "forwards",
            "delivers",
            "drops",
            "route_changes",
            "link_events",
            "messages",
            "withdrawals",
            "message_bytes",
        }
