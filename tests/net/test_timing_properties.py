"""Property-based timing invariants of the link and channel layers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.channels import ReliableChannel
from repro.net.link import Link
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.topology.graph import LinkSpec


class TestLinkFifoProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=40, max_value=1500), min_size=1, max_size=25)
    )
    def test_per_direction_fifo_any_sizes(self, sizes):
        """Packets of arbitrary sizes arrive in send order (store-and-forward
        serialization cannot reorder a FIFO queue)."""
        sim = Simulator()
        delivered = []
        link = Link(
            sim,
            LinkSpec(1, 2, delay=0.001, bandwidth=1_000_000),
            deliver=lambda dst, p, src: delivered.append(p.packet_id),
            dropper=lambda *a: None,
            queue_capacity=100,
        )
        ids = []
        for size in sizes:
            p = Packet(src=1, dst=2, size_bytes=size)
            ids.append(p.packet_id)
            link.transmit(1, p)
        sim.run()
        assert delivered == ids

    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=40, max_value=1500), min_size=1, max_size=20),
        stagger=st.lists(st.floats(min_value=0.0, max_value=0.01), min_size=1, max_size=20),
    )
    def test_fifo_with_staggered_sends(self, sizes, stagger):
        sim = Simulator()
        delivered = []
        link = Link(
            sim,
            LinkSpec(1, 2, delay=0.002, bandwidth=500_000),
            deliver=lambda dst, p, src: delivered.append(p.packet_id),
            dropper=lambda *a: None,
            queue_capacity=100,
        )
        ids = []
        t = 0.0
        for size, gap in zip(sizes, stagger):
            t += gap
            p = Packet(src=1, dst=2, size_bytes=size)
            ids.append(p.packet_id)
            sim.schedule_at(t, lambda p=p: link.transmit(1, p))
        sim.run()
        assert delivered == ids

    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=40, max_value=1500), min_size=2, max_size=30)
    )
    def test_throughput_conservation(self, sizes):
        """delivered + dropped == sent, with drops only from queue overflow."""
        sim = Simulator()
        delivered, dropped = [], []
        link = Link(
            sim,
            LinkSpec(1, 2, delay=0.001, bandwidth=1_000_000),
            deliver=lambda dst, p, src: delivered.append(p),
            dropper=lambda p, n, c: dropped.append(p),
            queue_capacity=5,
        )
        for size in sizes:
            link.transmit(1, Packet(src=1, dst=2, size_bytes=size))
        sim.run()
        assert len(delivered) + len(dropped) == len(sizes)


class TestReliableChannelProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=30, max_value=2000), min_size=1, max_size=25)
    )
    def test_in_order_any_sizes(self, sizes):
        sim = Simulator()
        link = Link(
            sim,
            LinkSpec(1, 2, delay=0.001, bandwidth=1_000_000),
            deliver=lambda *a: None,
            dropper=lambda *a: None,
        )
        got = []
        channel = ReliableChannel(sim, link, src=1, deliver=lambda _dst, p: got.append(p))
        for i, size in enumerate(sizes):
            assert channel.send(i, size)
        sim.run()
        assert got == list(range(len(sizes)))

    @settings(max_examples=30, deadline=None)
    @given(
        n_before=st.integers(min_value=0, max_value=10),
        n_after=st.integers(min_value=0, max_value=10),
    )
    def test_failure_loses_suffix_only(self, n_before, n_after):
        """Messages fully delivered before the failure survive; everything in
        flight or sent after is lost — never a gap in the middle."""
        sim = Simulator()
        link = Link(
            sim,
            LinkSpec(1, 2, delay=0.001, bandwidth=1_000_000),
            deliver=lambda *a: None,
            dropper=lambda *a: None,
        )
        got = []
        channel = ReliableChannel(sim, link, src=1, deliver=lambda _dst, p: got.append(p))
        for i in range(n_before):
            channel.send(i, 100)
        sim.run()  # drain
        sim.schedule(0.0001, link.fail)
        for i in range(n_before, n_before + n_after):
            channel.send(i, 100)
        sim.run()
        assert got[: n_before] == list(range(n_before))
        # Delivered set is a prefix: sorted and contiguous.
        assert got == sorted(got)
        assert all(b - a == 1 for a, b in zip(got, got[1:]))
