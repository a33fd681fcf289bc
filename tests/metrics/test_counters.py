"""Unit tests for drop and message counters."""

from __future__ import annotations

from repro.metrics.counters import DropCounter, MessageCounter
from repro.sim.tracing import DropCause, MessageRecord, PacketRecord, TraceBus


def drop_record(time=1.0, cause=DropCause.NO_ROUTE):
    return PacketRecord(
        time=time, kind="drop", packet_id=1, node=2, flow_id=1, ttl=5, cause=cause
    )


class TestDropCounter:
    def test_counts_by_cause(self):
        bus = TraceBus()
        counter = DropCounter(bus)
        bus.publish(drop_record(cause=DropCause.NO_ROUTE))
        bus.publish(drop_record(cause=DropCause.NO_ROUTE))
        bus.publish(drop_record(cause=DropCause.TTL_EXPIRED))
        assert counter.no_route == 2
        assert counter.ttl_expired == 1
        assert counter.total == 3

    def test_window_filters_early_drops(self):
        bus = TraceBus()
        counter = DropCounter(bus, window_start=10.0)
        bus.publish(drop_record(time=5.0))
        bus.publish(drop_record(time=15.0))
        assert counter.no_route == 1

    def test_non_drop_records_ignored(self):
        bus = TraceBus()
        counter = DropCounter(bus)
        bus.publish(
            PacketRecord(time=1.0, kind="deliver", packet_id=1, node=2, flow_id=1, ttl=5)
        )
        assert counter.total == 0

    def test_all_cause_properties(self):
        bus = TraceBus()
        counter = DropCounter(bus)
        for cause in DropCause:
            bus.publish(drop_record(cause=cause))
        assert counter.no_route == 1
        assert counter.ttl_expired == 1
        assert counter.link_down == 1
        assert counter.queue_overflow == 1


class TestMessageCounter:
    def test_counts_messages_and_routes(self):
        bus = TraceBus()
        counter = MessageCounter(bus)
        bus.publish(MessageRecord(time=1.0, sender=0, receiver=1, protocol="rip", n_routes=25))
        bus.publish(
            MessageRecord(
                time=2.0, sender=1, receiver=0, protocol="bgp", n_routes=1, is_withdrawal=True
            )
        )
        assert counter.messages == 2
        assert counter.routes == 26
        assert counter.withdrawals == 1

    def test_window(self):
        bus = TraceBus()
        counter = MessageCounter(bus, window_start=5.0)
        bus.publish(MessageRecord(time=1.0, sender=0, receiver=1, protocol="rip", n_routes=1))
        bus.publish(MessageRecord(time=9.0, sender=0, receiver=1, protocol="rip", n_routes=1))
        assert counter.messages == 1
