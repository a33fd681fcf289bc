"""Tests for the hot-path scheduler API: validation, closure-free
scheduling, handle recycling, and the EventStats snapshot."""

from __future__ import annotations

import math

import pytest

from repro.sim.engine import EventStats, SimulationError, Simulator


BAD_TIMES = [float("nan"), float("inf"), float("-inf"), -1.0]


class TestTimeValidation:
    @pytest.mark.parametrize("delay", BAD_TIMES)
    def test_schedule_rejects_non_finite_delay(self, sim, delay):
        with pytest.raises(SimulationError):
            sim.schedule(delay, lambda: None)

    @pytest.mark.parametrize("delay", BAD_TIMES)
    def test_schedule_with_args_rejects_bad_delay(self, sim, delay):
        with pytest.raises(SimulationError):
            sim.schedule(delay, print, "never")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_schedule_at_rejects_non_finite_time(self, sim, bad):
        with pytest.raises(SimulationError):
            sim.schedule_at(bad, lambda: None)

    def test_schedule_at_rejects_past_time(self, sim):
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    @pytest.mark.parametrize("delay", BAD_TIMES)
    def test_reschedule_rejects_non_finite_delay(self, sim, delay):
        handle = sim.schedule(0.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.reschedule(handle, delay)

    def test_rejected_event_leaves_queue_untouched(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append("ok"))
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: fired.append("bad"))
        sim.run()
        assert fired == ["ok"]


class TestFastPathScheduling:
    def test_schedule_passes_args(self, sim):
        seen = []
        sim.schedule(1.0, lambda a, b: seen.append((a, b)), "x", 2)
        sim.run()
        assert seen == [("x", 2)]

    def test_schedule_at_passes_args(self, sim):
        seen = []
        sim.schedule_at(1.0, lambda a, b: seen.append((sim.now, a, b)), "x", 2)
        sim.run()
        assert seen == [(1.0, "x", 2)]

    def test_schedule_with_args_cancellable(self, sim):
        seen = []
        handle = sim.schedule(1.0, seen.append, "never")
        handle.cancel()
        sim.run()
        assert seen == []

    def test_schedule_at_with_args_ties_keep_loop_order(self, sim):
        fired = []
        for label in "abcde":
            sim.schedule_at(1.0, fired.append, label)
        sim.run()
        assert fired == list("abcde")

    def test_schedule_at_interleaves_with_relative_by_time(self, sim):
        fired = []
        sim.schedule(1.5, lambda: fired.append("mid"))
        for t, label in ((1.0, "first"), (2.0, "last")):
            sim.schedule_at(t, fired.append, label)
        sim.run()
        assert fired == ["first", "mid", "last"]


class TestReschedule:
    def test_reschedule_reuses_fired_handle(self, sim):
        ticks = []
        state = {}

        def tick():
            ticks.append(sim.now)
            if len(ticks) < 3:
                state["h"] = sim.reschedule(state["h"], 1.0)

        state["h"] = sim.schedule(1.0, tick)
        sim.run()
        assert ticks == [1.0, 2.0, 3.0]

    def test_reschedule_rejects_pending_handle(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.reschedule(handle, 1.0)

    def test_reschedule_rejects_unfired_cancelled_handle(self, sim):
        # A cancelled-but-unfired handle still has a live heap entry;
        # recycling it would make that entry fire a resurrected callback.
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        with pytest.raises(SimulationError):
            sim.reschedule(handle, 1.0)

    def test_rescheduled_handle_can_be_cancelled(self, sim):
        seen = []
        state = {}

        def tick():
            seen.append(sim.now)
            state["h"] = sim.reschedule(state["h"], 1.0)

        state["h"] = sim.schedule(1.0, tick)
        sim.schedule(2.5, lambda: state["h"].cancel())
        sim.run()
        assert seen == [1.0, 2.0]


class TestDeterminism:
    def test_cancelled_callbacks_never_execute(self, sim):
        fired = []
        handles = [
            sim.schedule(1.0, lambda i=i: fired.append(i)) for i in range(10)
        ]
        for i, handle in enumerate(handles):
            if i % 2 == 0:
                handle.cancel()
        sim.run()
        assert fired == [1, 3, 5, 7, 9]

    def test_run_until_resumes_contiguously(self, sim):
        fired = []
        for t in (1.0, 2.0, 3.0, 4.0):
            sim.schedule(t, lambda t=t: fired.append(t))
        sim.run(until=2.5)
        assert fired == [1.0, 2.0]
        assert sim.now == 2.5
        sim.run()
        assert fired == [1.0, 2.0, 3.0, 4.0]

    def test_mixed_apis_keep_global_insertion_order(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(1.0, fired.append, "b")
        sim.schedule_at(1.0, lambda: fired.append("c"))
        sim.schedule_at(1.0, lambda: fired.append("d"))
        sim.run()
        assert fired == ["a", "b", "c", "d"]


class TestEventStats:
    def test_counts_processed_and_skipped(self, sim):
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
        handles[0].cancel()
        handles[2].cancel()
        sim.run()
        stats = sim.stats()
        assert isinstance(stats, EventStats)
        assert stats.events_processed == 2
        assert stats.cancelled_skipped == 2
        assert stats.pending == 0
        assert stats.sim_time == 4.0

    def test_queue_depth_high_water_mark(self, sim):
        for i in range(7):
            sim.schedule(float(i + 1), lambda: None)
        sim.run()
        assert sim.stats().queue_depth_hwm == 7

    def test_events_per_sec_positive_after_run(self, sim):
        for i in range(100):
            sim.schedule(float(i), lambda: None)
        sim.run()
        stats = sim.stats()
        assert stats.wall_time > 0.0
        assert stats.events_per_sec > 0.0
        assert math.isfinite(stats.events_per_sec)

    def test_fresh_simulator_stats_are_zero(self):
        stats = Simulator().stats()
        assert stats.events_processed == 0
        assert stats.cancelled_skipped == 0
        assert stats.events_per_sec == 0.0
