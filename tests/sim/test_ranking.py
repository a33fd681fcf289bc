"""The engine's ranking contract.

Heap entries are ``(time, as_of, seq, handle)``.  Every public entry point
ranks an event as of ``now`` with a fresh ``seq``, so same-time events run in
scheduling order.  The link layer alone ranks events as of another instant
(through ``Simulator._schedule_ranked``) and asks ``Simulator._has_run``
whether an event it never scheduled would already have fired.
"""

from __future__ import annotations

from repro.net.link import Link
from repro.net.packet import Packet
from repro.sim.tracing import DropCause
from repro.topology.graph import LinkSpec


def _ranks(sim) -> list[tuple]:
    return [entry[:3] for entry in sim._heap]


class TestOrder:
    def test_entries_pop_in_time_as_of_seq_order(self, sim):
        fired = []
        s1, s2, s3 = next(sim._seq), next(sim._seq), next(sim._seq)
        # Pushed out of order; one ranked as of a later instant than now.
        sim._schedule_ranked(1.0, 0.5, s1, fired.append, ("as of 0.5",))
        sim._schedule_ranked(1.0, 0.0, s3, fired.append, ("as of 0, third seq",))
        sim.schedule_at(1.0, fired.append, "ordinary, as of 0")
        sim._schedule_ranked(1.0, 0.0, s2, fired.append, ("as of 0, second seq",))
        sim.schedule_at(0.5, fired.append, "earlier time")
        sim.run()
        assert fired == [
            "earlier time",
            "as of 0, second seq",
            "as of 0, third seq",
            "ordinary, as of 0",
            "as of 0.5",
        ]

    def test_ranked_as_of_an_earlier_instant_runs_before_later_schedules(self, sim):
        fired = []
        early = next(sim._seq)

        def at_one():
            sim.schedule_at(2.0, fired.append, "ordinary, as of 1")
            sim._schedule_ranked(2.0, 0.0, early, fired.append, ("as of 0",))

        sim.schedule_at(1.0, at_one)
        sim.run()
        assert fired == ["as of 0", "ordinary, as of 1"]

    def test_ordinary_schedules_keep_fifo_ties(self, sim):
        fired = []
        sim.schedule_at(2.0, fired.append, "a")

        def at_one():
            sim.schedule(1.0, fired.append, "b")
            sim.schedule_at(2.0, lambda: fired.append("c"))
            sim.schedule_at(2.0, fired.append, "d")

        sim.schedule(1.0, at_one)
        sim.schedule_at(2.0, fired.append, "e")  # scheduled at 0: before b, c, d
        sim.run()
        assert fired == ["a", "e", "b", "c", "d"]


class TestHasRun:
    def test_inside_an_event_compares_with_the_running_entry(self, sim):
        seen = {}
        before, after = next(sim._seq), None

        def probe():
            seen["before"] = sim._has_run(1.0, 0.0, before)
            seen["after"] = sim._has_run(1.0, 0.0, after)
            seen["later time"] = sim._has_run(1.5, 0.0, before)
            seen["earlier time"] = sim._has_run(0.5, 0.9, after)

        sim.schedule_at(1.0, probe)
        after = next(sim._seq)
        sim.run()
        assert seen == {
            "before": True,
            "after": False,
            "later time": False,
            "earlier time": True,
        }

    def test_between_runs_everything_up_to_now_has_run(self, sim):
        sim.schedule_at(1.0, lambda: None)
        sim.run(until=2.0)
        assert sim._has_run(2.0, 2.0, 10**9)
        assert not sim._has_run(2.5, 0.0, 0)

    def test_a_stopped_run_keeps_the_last_executed_entry(self, sim):
        sim.schedule_at(1.0, sim.stop)
        sim.schedule_at(1.0, lambda: None)
        last = next(sim._seq)
        sim.run()
        assert sim.now == 1.0
        assert sim._has_run(1.0, 0.0, -1)
        assert not sim._has_run(1.0, 0.0, last)


def _link(sim, drops):
    return Link(
        sim,
        LinkSpec(1, 2, delay=0.001, bandwidth=1_000_000),
        deliver=lambda dst, p, src: None,
        dropper=lambda p, node, cause: drops.append((sim.now, cause)),
    )


def _pkt() -> Packet:
    return Packet(src=1, dst=2, size_bytes=500)  # 4 ms at 1 Mb/s


class TestLinkEvents:
    def test_one_event_per_packet_until_a_queue_forms(self, sim):
        link = _link(sim, [])
        link.transmit(1, _pkt())
        assert sim.pending_events == 1  # the arrival only
        link.transmit(1, _pkt())
        assert sim.pending_events == 2  # plus the transmitter event at tx_end
        sim.run()
        assert sim.events_processed == 3  # two arrivals, one transmitter event
        assert link.packets_transmitted == 2

    def test_no_two_entries_share_a_rank_when_a_failure_meets_a_queue(self, sim):
        # A queue has formed, so the transmitter event at tx_end is pending
        # when the failure catches the serializing packet: the kill must
        # reuse that event (same rank), not push a second one beside it.
        drops = []
        link = _link(sim, drops)
        for _ in range(3):
            link.transmit(1, _pkt())
        observed = {}

        def fail_and_look():
            link.fail()
            observed["ranks"] = _ranks(sim)

        sim.schedule_at(0.001, fail_and_look)
        sim.run()
        ranks = observed["ranks"]
        assert len(ranks) == len(set(ranks))
        assert [r for r in ranks if r[0] == 0.004] == [(0.004, 0.0, 0)]
        assert drops == [(0.001, DropCause.LINK_DOWN)] * 2 + [
            (0.004, DropCause.LINK_DOWN)
        ]
        assert sim.stats().cancelled_skipped == 1  # the killed packet's arrival
