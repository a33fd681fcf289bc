"""Unit tests for the topology event layer (LinkScheduler and drivers)."""

from __future__ import annotations

import pytest

from repro.net.dynamics import (
    LinkEvent,
    LinkScheduler,
    ScriptedDriver,
    SingleLinkFailureDriver,
)
from repro.net.network import Network
from repro.sim.engine import SimulationError, Simulator
from repro.topology import generators

from ..conftest import recorded, recording_network


class Recorder:
    def __init__(self):
        self.down = []
        self.up = []

    def handle_link_down(self, neighbor):
        self.down.append(neighbor)

    def handle_link_up(self, neighbor):
        self.up.append(neighbor)


def make(detection_delay=0.05, topo=None):
    sim = Simulator()
    net = recording_network(sim, topo if topo is not None else generators.line(3))
    recorders = {}
    for node in net.iter_nodes():
        rec = Recorder()
        recorders[node.id] = rec
        node.attach_protocol(rec)
    scheduler = LinkScheduler(sim, net, detection_delay=detection_delay)
    return sim, net, recorded(net), recorders, scheduler


class TestFailureInjection:
    def test_link_goes_down_at_fail_time(self):
        sim, net, trace, recorders, scheduler = make()
        scheduler.fail_link(0, 1, at=5.0)
        sim.run(until=4.9)
        assert net.link(0, 1).up
        sim.run(until=5.1)
        assert not net.link(0, 1).up

    def test_endpoints_notified_after_detection_delay(self):
        sim, net, trace, recorders, scheduler = make(detection_delay=0.5)
        scheduler.fail_link(0, 1, at=1.0)
        sim.run(until=1.4)
        assert recorders[0].down == []
        sim.run(until=1.6)
        assert recorders[0].down == [1]
        assert recorders[1].down == [0]
        assert recorders[2].down == []

    def test_event_record_published(self):
        sim, net, trace, recorders, scheduler = make()
        scheduler.fail_link(1, 2, at=2.0)
        sim.run()
        assert len(trace["link"]) == 1
        ev = trace["link"][0]
        assert (ev.node_a, ev.node_b, ev.up) == (1, 2, False)

    def test_failure_event_metadata(self):
        sim, net, trace, recorders, scheduler = make(detection_delay=0.05)
        event = scheduler.fail_link(0, 1, at=3.0)
        assert event.detect_time == 3.05
        assert event.link_key == (0, 1)
        assert event.fail_time == 3.0  # legacy alias for .time

    def test_unknown_link_rejected_immediately(self):
        sim, net, trace, recorders, scheduler = make()
        with pytest.raises(KeyError):
            scheduler.fail_link(0, 2, at=1.0)

    def test_negative_detection_delay_rejected(self):
        sim = Simulator()
        net = Network(sim, generators.line(2))
        with pytest.raises(ValueError):
            LinkScheduler(sim, net, detection_delay=-1.0)

    def test_restore_notifies_link_up(self):
        sim, net, trace, recorders, scheduler = make(detection_delay=0.1)
        scheduler.fail_link(0, 1, at=1.0)
        scheduler.restore_link(0, 1, at=2.0)
        sim.run()
        assert net.link(0, 1).up
        assert recorders[0].up == [1]
        assert recorders[1].up == [0]
        assert scheduler.events[0].restored_time == 2.0


class TestStrictStateTransitions:
    def test_restoring_an_up_link_is_a_loud_error(self):
        # Regression: the old injector silently skipped the bookkeeping when
        # restoring a link that never failed, hiding driver bugs.
        sim, net, trace, recorders, scheduler = make()
        scheduler.restore_link(0, 1, at=1.0)
        with pytest.raises(SimulationError, match="already up"):
            sim.run()
        assert recorders[0].up == []  # no phantom notification either

    def test_failing_a_down_link_is_a_loud_error(self):
        sim, net, trace, recorders, scheduler = make()
        scheduler.fail_link(0, 1, at=1.0)
        scheduler.fail_link(0, 1, at=2.0)
        with pytest.raises(SimulationError, match="already down"):
            sim.run()

    def test_event_validation(self):
        with pytest.raises(ValueError):
            LinkEvent("flap", 0, 1, 1.0)
        with pytest.raises(ValueError):
            LinkEvent("fail", 0, 1, -1.0)
        with pytest.raises(ValueError):
            LinkEvent("fail", 0, 1, 1.0, detection_delay=-0.1)


class TestFlapBookkeeping:
    def test_each_fail_records_its_own_outage(self):
        sim, net, trace, recorders, scheduler = make(detection_delay=0.01)
        for cycle in range(3):
            scheduler.fail_link(0, 1, at=1.0 + 2.0 * cycle)
            scheduler.restore_link(0, 1, at=2.0 + 2.0 * cycle)
        sim.run()
        fails = [e for e in scheduler.events if e.kind == "fail"]
        assert [e.restored_time for e in fails] == [2.0, 4.0, 6.0]
        assert net.link(0, 1).up
        # One LinkEventRecord per transition, alternating down/up.
        assert [e.up for e in trace["link"]] == [False, True] * 3
        assert net.bus.counters.link_events == 6

    def test_notifications_delivered_per_transition(self):
        sim, net, trace, recorders, scheduler = make(detection_delay=0.01)
        for cycle in range(2):
            scheduler.fail_link(0, 1, at=1.0 + cycle)
            scheduler.restore_link(0, 1, at=1.5 + cycle)
        sim.run()
        assert recorders[0].down == [1, 1]
        assert recorders[0].up == [1, 1]


class TestDrivers:
    def test_single_link_failure_driver_matches_manual_injection(self):
        sim, net, trace, recorders, scheduler = make()
        driver = SingleLinkFailureDriver((0, 1), fail_at=3.0)
        scheduled = scheduler.run_driver(driver, until=10.0)
        assert [(e.kind, e.link_key, e.time) for e in scheduled] == [
            ("fail", (0, 1), 3.0)
        ]
        sim.run(until=10.0)
        assert not net.link(0, 1).up

    def test_single_link_driver_with_repair(self):
        sim, net, trace, recorders, scheduler = make()
        driver = SingleLinkFailureDriver((0, 1), fail_at=3.0, restore_at=5.0)
        scheduler.run_driver(driver, until=10.0)
        sim.run(until=10.0)
        assert net.link(0, 1).up
        assert scheduler.events[0].restored_time == 5.0

    def test_single_link_driver_rejects_restore_before_fail(self):
        driver = SingleLinkFailureDriver((0, 1), fail_at=3.0, restore_at=2.0)
        with pytest.raises(ValueError):
            driver.generate(until=10.0)

    def test_scripted_driver_truncates_at_horizon(self):
        events = (
            LinkEvent("fail", 0, 1, 1.0),
            LinkEvent("restore", 0, 1, 2.0),
            LinkEvent("fail", 0, 1, 99.0),
        )
        assert len(ScriptedDriver(events).generate(until=10.0)) == 2

    def test_scripted_driver_rejects_unordered_events(self):
        events = (LinkEvent("fail", 0, 1, 2.0), LinkEvent("restore", 0, 1, 1.0))
        with pytest.raises(ValueError, match="time-ordered"):
            ScriptedDriver(events).generate(until=10.0)


class TestInitialState:
    def test_take_down_initially_is_silent(self):
        sim, net, trace, recorders, scheduler = make()
        scheduler.take_down_initially([(0, 1)])
        assert not net.link(0, 1).up
        assert trace["link"] == []
        assert recorders[0].down == []
        assert scheduler.events == []

    def test_take_down_initially_refuses_mid_run(self):
        sim, net, trace, recorders, scheduler = make()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            scheduler.take_down_initially([(0, 1)])

    def test_take_down_initially_refuses_double_down(self):
        sim, net, trace, recorders, scheduler = make()
        scheduler.take_down_initially([(0, 1)])
        with pytest.raises(SimulationError):
            scheduler.take_down_initially([(0, 1)])

    def test_initially_down_link_can_be_restored(self):
        sim, net, trace, recorders, scheduler = make()
        scheduler.take_down_initially([(0, 1)])
        scheduler.restore_link(0, 1, at=2.0)
        sim.run()
        assert net.link(0, 1).up
        assert recorders[0].up == [1]
