"""Property tests for the trace-driven drop/message counters.

Hypothesis drives random record streams through a real ``TraceBus`` and
checks the counters against brute-force oracles:

* every drop lands in exactly one cause bucket, so the per-cause counts
  always sum to ``total`` and match a manual count over the stream;
* ``window_start`` filters on record time exactly (``time >= window``);
* byte/route/withdrawal accounting matches a straight sum.

Plus the unsubscribe bugfix: a ``close()``d counter stops counting, releases
the bus's ``wants_*`` guard, and is idempotent.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.counters import DropCounter, MessageCounter
from repro.sim.tracing import DropCause, MessageRecord, PacketRecord, TraceBus

_CAUSES = list(DropCause)

_packet_events = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.sampled_from(["send", "forward", "deliver", "drop"]),
        st.sampled_from(_CAUSES),
    ),
    max_size=60,
)

_message_events = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.integers(min_value=0, max_value=25),  # n_routes
        st.integers(min_value=0, max_value=4096),  # size_bytes
        st.booleans(),  # is_withdrawal
    ),
    max_size=60,
)

_window = st.one_of(
    st.none(), st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
)


def _publish_packets(bus: TraceBus, events) -> None:
    for i, (time, kind, cause) in enumerate(events):
        bus.publish(
            PacketRecord(
                time=time,
                kind=kind,
                packet_id=i,
                node=0,
                flow_id=1,
                ttl=64,
                cause=cause if kind == "drop" else None,
            )
        )


class TestDropCounterProperties:
    @given(events=_packet_events, window=_window)
    @settings(max_examples=60, deadline=None)
    def test_by_cause_sums_to_total_and_matches_oracle(self, events, window):
        bus = TraceBus()
        counter = DropCounter(bus, window_start=window)
        _publish_packets(bus, events)

        in_window = [
            (time, cause)
            for time, kind, cause in events
            if kind == "drop" and (window is None or time >= window)
        ]
        assert counter.total == len(in_window)
        assert sum(counter.by_cause.values()) == counter.total
        for cause in DropCause:
            expected = [t for t, c in in_window if c is cause]
            assert counter.by_cause[cause] == len(expected)

    @given(events=_packet_events)
    @settings(max_examples=30, deadline=None)
    def test_non_drop_records_never_count(self, events):
        bus = TraceBus()
        counter = DropCounter(bus)
        _publish_packets(
            bus, [(t, k, c) for t, k, c in events if k != "drop"]
        )
        assert counter.total == 0


class TestMessageCounterProperties:
    @given(events=_message_events, window=_window)
    @settings(max_examples=60, deadline=None)
    def test_counts_match_straight_sums(self, events, window):
        bus = TraceBus()
        counter = MessageCounter(bus, window_start=window)
        for time, n_routes, size_bytes, is_withdrawal in events:
            bus.publish(
                MessageRecord(
                    time=time,
                    sender=0,
                    receiver=1,
                    protocol="rip",
                    n_routes=n_routes,
                    is_withdrawal=is_withdrawal,
                    size_bytes=size_bytes,
                )
            )
        kept = [
            e for e in events if window is None or e[0] >= window
        ]
        assert counter.messages == len(kept)
        assert counter.routes == sum(e[1] for e in kept)
        assert counter.bytes_sent == sum(e[2] for e in kept)
        assert counter.withdrawals == sum(1 for e in kept if e[3])


class TestCloseReleasesTheSubscription:
    """Regression for the original leak: counters never unsubscribed, so
    dead collectors kept the ``wants_*`` guards stuck on forever."""

    def test_closed_drop_counter_stops_counting(self):
        bus = TraceBus()
        counter = DropCounter(bus)
        record = PacketRecord(
            time=1.0, kind="drop", packet_id=1, node=0, flow_id=1, ttl=64,
            cause=DropCause.NO_ROUTE,
        )
        bus.publish(record)
        counter.close()
        bus.publish(record)
        assert counter.total == 1  # counts survive close; new drops don't

    def test_close_resets_the_wants_guard(self):
        bus = TraceBus()
        counter = DropCounter(bus)
        assert bus.wants_packet
        counter.close()
        assert not bus.wants_packet

    def test_close_is_idempotent(self):
        bus = TraceBus()
        counter = DropCounter(bus)
        counter.close()
        counter.close()  # second close must not raise or double-unsubscribe

    def test_message_counter_close_resets_the_wants_guard(self):
        bus = TraceBus()
        counter = MessageCounter(bus)
        assert bus.wants_message
        counter.close()
        assert not bus.wants_message

    def test_context_manager_closes_on_exit(self):
        bus = TraceBus()
        with MessageCounter(bus) as counter:
            bus.publish(
                MessageRecord(
                    time=0.0, sender=0, receiver=1, protocol="rip", n_routes=2
                )
            )
        assert not bus.wants_message
        assert counter.messages == 1

    def test_close_only_releases_its_own_subscription(self):
        bus = TraceBus()
        first = DropCounter(bus)
        second = DropCounter(bus)
        first.close()
        assert bus.wants_packet  # the survivor keeps the guard up
        record = PacketRecord(
            time=1.0, kind="drop", packet_id=1, node=0, flow_id=1, ttl=64,
            cause=DropCause.TTL_EXPIRED,
        )
        bus.publish(record)
        assert first.total == 0
        assert second.total == 1
