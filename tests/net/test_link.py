"""Unit tests for link transmission, queuing and failure semantics."""

from __future__ import annotations

import pytest

from repro.net.link import Link
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.tracing import DropCause
from repro.topology.graph import LinkSpec


class Harness:
    """Capture link deliveries and drops."""

    def __init__(self, sim, spec=None, queue_capacity=20):
        self.delivered = []  # (time, dst, packet, src)
        self.dropped = []  # (time, packet, node, cause)
        self.sim = sim
        self.link = Link(
            sim,
            spec or LinkSpec(1, 2, delay=0.001, bandwidth=1_000_000),
            deliver=lambda dst, p, src: self.delivered.append((sim.now, dst, p, src)),
            dropper=lambda p, n, c: self.dropped.append((sim.now, p, n, c)),
            queue_capacity=queue_capacity,
        )


def _pkt(size=500):
    return Packet(src=1, dst=2, size_bytes=size)


class TestTransmission:
    def test_delivery_after_tx_plus_prop(self, sim):
        h = Harness(sim)
        h.link.transmit(1, _pkt(500))  # 500B at 1Mbps = 4ms + 1ms prop
        sim.run()
        assert len(h.delivered) == 1
        t, dst, _, src = h.delivered[0]
        assert t == pytest.approx(0.005)
        assert (dst, src) == (2, 1)

    def test_serialization_is_fifo_and_back_to_back(self, sim):
        h = Harness(sim)
        p1, p2 = _pkt(), _pkt()
        h.link.transmit(1, p1)
        h.link.transmit(1, p2)
        sim.run()
        times = [t for t, *_ in h.delivered]
        assert times[0] == pytest.approx(0.005)
        assert times[1] == pytest.approx(0.009)  # queued behind p1's 4ms tx

    def test_directions_are_independent(self, sim):
        h = Harness(sim)
        h.link.transmit(1, _pkt())
        h.link.transmit(2, Packet(src=2, dst=1, size_bytes=500))
        sim.run()
        times = sorted(t for t, *_ in h.delivered)
        assert times == [pytest.approx(0.005), pytest.approx(0.005)]

    def test_queue_overflow_drops(self, sim):
        h = Harness(sim, queue_capacity=2)
        # One in service + 2 queued fit; the 4th is dropped.
        for _ in range(4):
            h.link.transmit(1, _pkt())
        sim.run()
        assert len(h.delivered) == 3
        assert len(h.dropped) == 1
        _, _, node, cause = h.dropped[0]
        assert cause is DropCause.QUEUE_OVERFLOW
        assert node == 1

    def test_transmit_from_non_endpoint_rejected(self, sim):
        h = Harness(sim)
        with pytest.raises(ValueError):
            h.link.transmit(9, _pkt())

    def test_other_end(self, sim):
        h = Harness(sim)
        assert h.link.other_end(1) == 2
        assert h.link.other_end(2) == 1
        with pytest.raises(ValueError):
            h.link.other_end(3)


class TestFailure:
    def test_transmit_into_failed_link_drops(self, sim):
        h = Harness(sim)
        h.link.fail()
        h.link.transmit(1, _pkt())
        sim.run()
        assert h.delivered == []
        assert h.dropped[0][3] is DropCause.LINK_DOWN

    def test_in_flight_packets_die_on_failure(self, sim):
        h = Harness(sim)
        h.link.transmit(1, _pkt())
        sim.schedule(0.0045, h.link.fail)  # after serialization, mid-propagation
        sim.run()
        assert h.delivered == []
        assert [c for *_, c in h.dropped] == [DropCause.LINK_DOWN]

    def test_queued_packets_die_on_failure(self, sim):
        h = Harness(sim)
        for _ in range(3):
            h.link.transmit(1, _pkt())
        sim.schedule(0.001, h.link.fail)  # first still serializing
        sim.run()
        assert h.delivered == []
        assert len(h.dropped) == 3
        assert all(c is DropCause.LINK_DOWN for *_, c in h.dropped)

    def test_drained_packets_are_accounted_as_link_down(self, sim):
        # Pins the drain() audit: every packet flush_on_failure() pulls out
        # of the output queue must surface as a LINK_DOWN drop, so the
        # packet-conservation monitor sees no silent loss.
        h = Harness(sim)
        for _ in range(5):
            h.link.transmit(1, _pkt())
        sim.schedule(0.001, h.link.fail)  # first packet still serializing
        sim.run()
        channel = h.link._channels[1]
        assert channel.queue.drained == 4  # 1 in flight + 4 queued
        link_down = [p for _, p, _, c in h.dropped if c is DropCause.LINK_DOWN]
        # in-flight packet + every drained packet, nothing double-counted
        assert len(link_down) == 5
        assert len(set(id(p) for p in link_down)) == 5
        assert channel.queue.enqueued == channel.queue.drained + len(
            channel.queue
        ) + 1  # the serializing packet was popped for transmission

    def test_full_queue_stays_fifo_and_conserved_across_failures(self, sim):
        # Two bursts into a 3-packet queue, each cut by a failure: overflow is
        # counted, survivors arrive in send order, and every packet the queue
        # took is popped, drained or still queued.
        h = Harness(sim, queue_capacity=3)
        queue = h.link._channels[1].queue
        sent = []
        for burst_at in (0.0, 0.1):
            for _ in range(6):  # 1 onto the wire, 3 queued, 2 overflow
                packet = _pkt()
                sent.append(packet)
                sim.schedule_at(burst_at, h.link.transmit, 1, packet)
            sim.schedule_at(burst_at + 0.006, h.link.fail)
            sim.schedule_at(burst_at + 0.05, h.link.restore)
        sim.run()
        assert queue.dropped == 4
        delivered = [p for _, _, p, _ in h.delivered]
        assert delivered == [p for p in sent if p in delivered]
        popped = len(delivered) + 2  # each failure caught one on the wire
        assert queue.enqueued == popped + queue.drained + len(queue)
        assert queue.drained == 4 and len(queue) == 0

    def test_fail_and_restore_mid_serialization_kills_the_packet(self, sim):
        # A packet a failure catches on the transmitter dies when its
        # serialization ends, even if the link is back up by then, and the
        # transmitter stays busy until that instant: a packet sent after the
        # restore waits for it instead of going onto the wire alongside.
        h = Harness(sim)
        a, b = _pkt(500), _pkt(500)  # 4 ms each at 1 Mb/s, 1 ms propagation
        h.link.transmit(1, a)
        sim.schedule(0.001, h.link.fail)
        sim.schedule(0.002, h.link.restore)
        sim.schedule(0.0025, h.link.transmit, 1, b)
        sim.run()
        assert len(h.dropped) == 1
        t, packet, node, cause = h.dropped[0]
        assert (packet, node, cause) == (a, 1, DropCause.LINK_DOWN)
        assert t == pytest.approx(0.004)
        assert [p for _, _, p, _ in h.delivered] == [b]
        assert h.delivered[0][0] == pytest.approx(0.009)
        assert h.link.packets_transmitted == 1

    def test_fail_is_idempotent(self, sim):
        h = Harness(sim)
        h.link.fail()
        h.link.fail()
        assert not h.link.up

    def test_fail_listeners_called_once(self, sim):
        h = Harness(sim)
        calls = []
        h.link.fail_listeners.append(lambda: calls.append(sim.now))
        h.link.fail()
        h.link.fail()
        assert calls == [0.0]

    def test_restore_allows_traffic_again(self, sim):
        h = Harness(sim)
        h.link.fail()
        h.link.restore()
        h.link.transmit(1, _pkt())
        sim.run()
        assert len(h.delivered) == 1

    def test_failed_at_recorded(self, sim):
        h = Harness(sim)
        sim.schedule(1.0, h.link.fail)
        sim.run()
        assert h.link.failed_at == 1.0
        h.link.restore()
        assert h.link.failed_at is None


class TestCounters:
    def test_packets_transmitted(self, sim):
        h = Harness(sim)
        for _ in range(3):
            h.link.transmit(1, _pkt())
        sim.run()
        assert h.link.packets_transmitted == 3

    def test_queue_length_visibility(self, sim):
        h = Harness(sim)
        for _ in range(5):
            h.link.transmit(1, _pkt())
        # One is in service; four remain queued.
        assert h.link.queue_length(1) == 4
        sim.run()
        assert h.link.queue_length(1) == 0
