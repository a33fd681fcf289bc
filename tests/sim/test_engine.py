"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import inspect

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self, sim):
        fired = []
        for label in "abc":
            sim.schedule(1.0, lambda l=label: fired.append(l))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_now_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_schedule_at_absolute_time(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.now == 1.0
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_scheduling_into_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_events_scheduled_during_run_fire(self, sim):
        fired = []

        def first():
            fired.append("first")
            sim.schedule(1.0, lambda: fired.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert not handle.pending

    def test_pending_transitions(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        assert handle.pending
        sim.run()
        assert not handle.pending


class TestRunControl:
    def test_run_until_stops_at_boundary(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=3.0)
        assert fired == [1]
        assert sim.now == 3.0
        sim.run()
        assert fired == [1, 5]

    def test_run_until_advances_time_even_when_queue_drains(self, sim):
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_repeated_run_until_is_contiguous(self, sim):
        ticks = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda t=t: ticks.append(t))
        sim.run(until=1.5)
        sim.run(until=2.5)
        sim.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_max_events_limits_execution(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=4)
        assert fired == [0, 1, 2, 3]

    def test_max_events_break_does_not_skip_past_pending(self, sim):
        # Regression: run(until=T, max_events=N) used to fast-forward now to
        # T even when the cap left events pending before T, so peek_time()
        # reported the past and new schedule() calls landed after them.
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(until=100.0, max_events=4)
        assert fired == [0, 1, 2, 3]
        assert sim.now == 4.0
        assert sim.peek_time() == 5.0
        # A fresh relative event must land *after* the still-pending ones.
        sim.schedule(0.5, lambda: fired.append("new"))
        sim.run(until=100.0)
        assert fired == [0, 1, 2, 3, "new", 4, 5, 6, 7, 8, 9]
        assert sim.now == 100.0

    def test_stop_break_does_not_fast_forward(self, sim):
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, lambda: None)
        sim.run(until=50.0)
        assert sim.now == 1.0
        assert sim.peek_time() == 2.0

    def test_until_with_max_events_advances_when_drained(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run(until=10.0, max_events=5)
        assert sim.now == 10.0

    def test_stop_halts_loop(self, sim):
        fired = []

        def first():
            fired.append(1)
            sim.stop()

        sim.schedule(1.0, first)
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]
        assert sim.pending_events == 1

    def test_run_not_reentrant(self, sim):
        def recurse():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1.0, recurse)
        sim.run()

    def test_events_processed_counter(self, sim):
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_peek_time_skips_cancelled(self, sim):
        h1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h1.cancel()
        assert sim.peek_time() == 2.0

    def test_peek_time_empty(self, sim):
        assert sim.peek_time() is None


class TestReschedule:
    def test_reschedule_recycles_fired_handle(self, sim):
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run()
        sim.reschedule(handle, 2.0)
        sim.run()
        assert fired == [1.0, 3.0]

    def test_reschedule_pending_handle_rejected(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.reschedule(handle, 1.0)

    def test_cancel_after_fire_is_sticky(self, sim):
        # Regression: reschedule() used to reset _cancelled, resurrecting a
        # handle a protocol had cancelled inside (or after) its own action.
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        handle.cancel()
        with pytest.raises(SimulationError):
            sim.reschedule(handle, 1.0)
        assert sim.pending_events == 0

    def test_cancel_inside_action_kills_the_cycle(self, sim):
        fired = []
        holder = {}

        def action():
            fired.append(sim.now)
            holder["handle"].cancel()

        holder["handle"] = sim.schedule(1.0, action)
        sim.run()
        with pytest.raises(SimulationError):
            sim.reschedule(holder["handle"], 1.0)
        assert fired == [1.0]


class TestAbsoluteScheduling:
    def test_schedule_at_loop_preserves_tie_order(self, sim):
        fired = []
        for label in "abc":
            sim.schedule_at(1.0, fired.append, label)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_schedule_at_loop_times_are_exact(self, sim):
        seen = []
        handles = [
            sim.schedule_at(t, lambda: seen.append(sim.now)) for t in (0.3, 0.1, 0.2)
        ]
        sim.run()
        assert seen == [0.1, 0.2, 0.3]
        assert [h.time for h in handles] == [0.3, 0.1, 0.2]


class TestSchedulingSurface:
    def test_one_engine_three_entry_points(self):
        # Pins the simplification: no backend selector, no extra schedulers.
        public = {
            name
            for name in dir(Simulator)
            if name.startswith("schedule") or name == "reschedule"
        }
        assert public == {"schedule", "schedule_at", "reschedule"}
        assert list(inspect.signature(Simulator).parameters) == []

    def test_stats_report_queue_high_water_mark_and_drain(self, sim):
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        assert sim.stats().queue_depth_hwm == 5
        sim.run()
        assert sim.stats().pending == 0


class TestPropertyBased:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    def test_arbitrary_delays_fire_sorted(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0, max_value=100), st.booleans()),
            min_size=1,
            max_size=40,
        )
    )
    def test_cancellation_subset_fires(self, entries):
        sim = Simulator()
        fired = []
        handles = []
        for i, (delay, cancel) in enumerate(entries):
            handles.append(
                (sim.schedule(delay, lambda i=i: fired.append(i)), cancel)
            )
        for handle, cancel in handles:
            if cancel:
                handle.cancel()
        sim.run()
        expected = {i for i, (_, cancel) in enumerate(entries) if not cancel}
        assert set(fired) == expected
