"""Unit tests for the engine's event queue.

The contract: entries are plain ``(time, seq, handle)`` tuples popped in
ascending ``(time, seq)`` order, ``peek`` is non-destructive, ``len`` tracks
the pending population and ``hwm`` its high-water mark.
"""

from __future__ import annotations

from repro.sim.eventq import HeapEventQueue


def _entries(times):
    return [(t, seq, None) for seq, t in enumerate(times)]


class TestOrderingContract:
    def test_pops_in_time_order(self):
        q = HeapEventQueue()
        times = [5.0, 1.0, 3.0, 2.0, 4.0]
        for entry in _entries(times):
            q.push(entry)
        assert [q.pop()[0] for _ in range(len(times))] == sorted(times)

    def test_ties_pop_fifo_by_seq(self):
        q = HeapEventQueue()
        for entry in _entries([1.0, 1.0, 1.0]):
            q.push(entry)
        assert [q.pop()[1] for _ in range(3)] == [0, 1, 2]

    def test_peek_is_nondestructive(self):
        q = HeapEventQueue()
        q.push((2.0, 0, None))
        q.push((1.0, 1, None))
        assert q.peek() == (1.0, 1, None)
        assert q.peek() == (1.0, 1, None)
        assert len(q) == 2

    def test_peek_empty_returns_none(self):
        assert HeapEventQueue().peek() is None

    def test_len_and_hwm(self):
        q = HeapEventQueue()
        for entry in _entries([3.0, 1.0, 2.0]):
            q.push(entry)
        assert len(q) == 3
        q.pop()
        q.push((9.0, 99, None))
        assert len(q) == 3
        assert q.hwm == 3

    def test_interleaved_push_pop(self):
        q = HeapEventQueue()
        q.push((10.0, 0, None))
        q.push((20.0, 1, None))
        assert q.pop()[0] == 10.0
        # Push behind the already-popped frontier but ahead of now.
        q.push((12.0, 2, None))
        assert q.pop()[0] == 12.0
        assert q.pop()[0] == 20.0
