"""Unit tests for the reliable neighbor channel (TCP abstraction)."""

from __future__ import annotations

import pytest

from repro.net.channels import ReliableChannel
from repro.net.link import Link
from repro.sim.engine import Simulator
from repro.topology.graph import LinkSpec


def make_channel(sim, delay=0.001, bandwidth=1_000_000):
    spec = LinkSpec(1, 2, delay=delay, bandwidth=bandwidth)
    link = Link(sim, spec, deliver=lambda *a: None, dropper=lambda *a: None)
    got = []
    channel = ReliableChannel(sim, link, src=1, deliver=lambda p: got.append((sim.now, p)))
    return link, channel, got


class TestReliableChannel:
    def test_delivery_with_serialization_and_delay(self, sim):
        link, channel, got = make_channel(sim)
        assert channel.send("m1", size_bytes=125)  # 1 ms tx + 1 ms prop
        sim.run()
        assert got == [(pytest.approx(0.002), "m1")]

    def test_in_order_fifo_delivery(self, sim):
        link, channel, got = make_channel(sim)
        channel.send("a", 125)
        channel.send("b", 125)
        channel.send("c", 125)
        sim.run()
        assert [m for _, m in got] == ["a", "b", "c"]
        times = [t for t, _ in got]
        assert times == sorted(times)

    def test_send_fails_when_link_down(self, sim):
        link, channel, got = make_channel(sim)
        link.fail()
        assert not channel.send("x", 100)
        assert not channel.connected

    def test_in_flight_lost_on_failure(self, sim):
        link, channel, got = make_channel(sim)
        channel.send("x", 125)
        sim.schedule(0.0015, link.fail)
        sim.run()
        assert got == []
        assert channel.messages_lost == 1

    def test_counters(self, sim):
        link, channel, got = make_channel(sim)
        channel.send("a", 125)
        channel.send("b", 125)
        sim.run()
        assert channel.messages_sent == 2
        assert channel.messages_delivered == 2
        assert channel.messages_lost == 0

    def test_dst_derived_from_link(self, sim):
        link, channel, got = make_channel(sim)
        assert channel.dst == 2

    def test_busy_channel_serializes_back_to_back(self, sim):
        link, channel, got = make_channel(sim)
        channel.send("a", 1250)  # 10 ms tx
        channel.send("b", 1250)
        sim.run()
        t_a, t_b = (t for t, _ in got)
        assert t_a == pytest.approx(0.011)
        assert t_b == pytest.approx(0.021)

    def test_close_detaches_an_idle_channel(self, sim):
        link, channel, got = make_channel(sim)
        channel.send("a", 125)
        sim.run()
        channel.close()
        assert link.fail_listeners == []

    def test_close_keeps_a_channel_with_a_message_in_flight(self, sim):
        # The link may come back before its failure is detected and carry a
        # message; a later failure must still destroy it.
        link, channel, got = make_channel(sim)
        channel.send("x", 125)
        channel.close()
        assert link.fail_listeners == [channel._on_link_fail]
        sim.schedule(0.0015, link.fail)
        sim.run()
        assert got == [] and channel.messages_lost == 1
