"""Fold-level tests of the monitors, and the cost of the suite's sampler."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import ScenarioRun
from repro.sim.tracing import RouteChangeRecord, TraceBus
from repro.validation.monitors import (
    SAMPLE_INTERVAL,
    FibLoopMonitor,
    MonitorSuite,
    PacketConservationMonitor,
)


def route(time: float, node: int, dest: int, old, new) -> RouteChangeRecord:
    return RouteChangeRecord(time, node, dest, old, new)


@pytest.fixture
def loops():
    """A FIB-loop monitor following a three-node chain 1 -> 2 -> 3 (= dest)."""
    bus = TraceBus()
    monitor = FibLoopMonitor()
    monitor.follow({1: {3: 2}, 2: {3: 3}}, bus)
    return monitor, bus


class TestFibLoopFold:
    def test_loop_created_and_broken_at_one_instant_is_not_flagged(self, loops):
        monitor, bus = loops
        bus.publish(route(5.0, 2, 3, 3, 1))  # 1 <-> 2 loop forms ...
        bus.publish(route(5.0, 2, 3, 1, 3))  # ... and breaks at the same time
        monitor.finish(10.0)
        assert monitor.violations == []

    def test_loop_that_outlives_its_instant_is_flagged_once_at_formation(self, loops):
        monitor, bus = loops
        bus.publish(route(5.0, 2, 3, 3, 1))
        bus.publish(route(6.0, 4, 3, None, 1))  # a walk from 4 still loops
        bus.publish(route(7.0, 2, 3, 1, 3))  # broken a second later
        monitor.finish(10.0)
        assert [str(v) for v in monitor.violations] == [
            "[fib-loop] t=5.000: forwarding loop 2->1->2 for dest 3"
        ]

    def test_loop_open_at_finish_is_flagged_as_still_present(self, loops):
        monitor, bus = loops
        bus.publish(route(5.0, 2, 3, 3, 1))
        monitor.finish(10.0)
        assert [str(v) for v in monitor.violations] == [
            "[fib-loop] t=5.000: forwarding loop 2->1->2 for dest 3 "
            "(still present at end of run)"
        ]


def test_balance_mismatch_reads_the_conservation_message():
    monitor = PacketConservationMonitor()
    monitor.balance(12.5, outstanding=5, in_network=3, buffered=1)
    monitor.balance(13.0, outstanding=4, in_network=3, buffered=1)
    assert [str(v) for v in monitor.violations] == [
        "[packet-conservation] t=12.500: 5 packet(s) unaccounted for but 3 "
        "data packet(s) physically in the network and 1 buffered awaiting routes"
    ]


def _events(protocol: str, monitors=None) -> int:
    run = ScenarioRun(protocol, 4, 7, ExperimentConfig.quick(), monitors=monitors)
    run.execute()
    events = run.sim.events_processed
    run.close()
    return events


@pytest.mark.parametrize("protocol", ["dbf", "rip", "dsr"])
def test_monitor_sampling_costs_one_event_per_simulated_second(protocol):
    """One sampler drives every monitor that looks at live state."""
    ticks = int(ExperimentConfig.quick().end_time / SAMPLE_INTERVAL)
    assert ticks == 60
    assert _events(protocol, MonitorSuite()) - _events(protocol) == ticks
