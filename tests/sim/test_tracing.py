"""Unit tests for the trace bus."""

from __future__ import annotations

from repro.sim.tracing import DropCause, PacketRecord, TraceBus


def _packet(kind="drop", cause=DropCause.NO_ROUTE):
    return PacketRecord(
        time=1.0, kind=kind, packet_id=1, node=2, flow_id=1, ttl=10, cause=cause
    )


class TestTraceBus:
    def test_subscribers_receive_matching_records(self):
        bus = TraceBus()
        got = []
        bus.subscribe("packet", got.append)
        record = _packet()
        bus.publish(record)
        assert got == [record]

    def test_subscribers_ignore_other_types(self):
        bus = TraceBus()
        got = []
        bus.subscribe("route", got.append)
        bus.publish(_packet())
        assert got == []

    def test_multiple_subscribers_all_called(self):
        bus = TraceBus()
        a, b = [], []
        bus.subscribe("packet", a.append)
        bus.subscribe("packet", b.append)
        bus.publish(_packet())
        assert len(a) == len(b) == 1


class TestDropCause:
    def test_all_causes_distinct(self):
        values = [c.value for c in DropCause]
        assert len(values) == len(set(values)) == 4
