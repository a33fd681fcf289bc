"""Unit tests for the drop-tail queue."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.net.packet import Packet
from repro.net.queues import DropTailQueue


def _pkt():
    return Packet(src=0, dst=1)


class TestDropTailQueue:
    def test_fifo_order(self):
        q = DropTailQueue(capacity=5)
        packets = [_pkt() for _ in range(3)]
        for p in packets:
            assert q.push(p)
        assert [q.pop() for _ in range(3)] == packets

    def test_capacity_enforced(self):
        q = DropTailQueue(capacity=2)
        assert q.push(_pkt())
        assert q.push(_pkt())
        assert not q.push(_pkt())
        assert q.dropped == 1
        assert len(q) == 2

    def test_pop_empty_returns_none(self):
        assert DropTailQueue(capacity=1).pop() is None

    def test_drain_empties_queue(self):
        q = DropTailQueue(capacity=5)
        packets = [_pkt() for _ in range(4)]
        for p in packets:
            q.push(p)
        assert q.drain() == packets
        assert q.empty

    def test_drain_counts_drained_packets(self):
        q = DropTailQueue(capacity=5)
        for _ in range(4):
            q.push(_pkt())
        assert q.drained == 0
        q.drain()
        assert q.drained == 4
        # Draining an empty queue is a no-op for the counter.
        q.drain()
        assert q.drained == 4
        # dropped stays overflow-only: drained packets are not overflow.
        assert q.dropped == 0

    def test_conservation_identity(self):
        # enqueued == popped + drained + still-queued, whatever the history.
        q = DropTailQueue(capacity=3)
        q.push(_pkt())
        q.push(_pkt())
        popped = 1 if q.pop() else 0
        q.push(_pkt())
        q.push(_pkt())  # overflow: rejected, not enqueued
        q.drain()
        q.push(_pkt())
        assert q.enqueued == popped + q.drained + len(q)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DropTailQueue(capacity=0)

    def test_counters(self):
        q = DropTailQueue(capacity=1)
        q.push(_pkt())
        q.push(_pkt())
        assert q.enqueued == 1
        assert q.dropped == 1

    @given(st.lists(st.booleans(), max_size=60))
    def test_property_len_never_exceeds_capacity(self, ops):
        q = DropTailQueue(capacity=7)
        model: list[int] = []
        for push in ops:
            if push:
                p = _pkt()
                ok = q.push(p)
                if len(model) < 7:
                    assert ok
                    model.append(p.packet_id)
                else:
                    assert not ok
            else:
                got = q.pop()
                if model:
                    assert got is not None and got.packet_id == model.pop(0)
                else:
                    assert got is None
            assert len(q) == len(model) <= 7

    @given(st.lists(st.sampled_from(["push", "pop", "drain"]), max_size=80))
    def test_property_fifo_drops_and_conservation_across_drains(self, ops):
        """At capacity a push is refused and counted; order stays FIFO; and
        ``enqueued == popped + drained + len`` holds after every step, drains
        (link failures) included."""
        q = DropTailQueue(capacity=3)
        model: list[Packet] = []
        popped = overflow = 0
        for op in ops:
            if op == "push":
                p = _pkt()
                if len(model) < 3:
                    assert q.push(p)
                    model.append(p)
                else:
                    assert not q.push(p)
                    overflow += 1
            elif op == "pop":
                got = q.pop()
                assert got is (model.pop(0) if model else None)
                popped += got is not None
            else:
                assert q.drain() == model
                model = []
            assert list(q) == model
            assert q.dropped == overflow
            assert q.enqueued == popped + q.drained + len(q)
