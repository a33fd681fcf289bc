"""Unit tests for convergence tracking."""

from __future__ import annotations

import pytest

from repro.metrics.convergence import (
    ConvergenceTracker,
    NetworkConvergenceWatcher,
    walk_forwarding_path,
)
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.tracing import RouteChangeRecord, TraceBus
from repro.topology import generators


class TestWalkForwardingPath:
    def test_complete_path(self):
        fib = {0: 1, 1: 2, 2: None}
        snap = walk_forwarding_path(fib, 0, 2)
        assert snap.state == "ok"
        assert snap.path == (0, 1, 2)
        assert snap.complete

    def test_broken_path(self):
        fib = {0: 1, 1: None}
        snap = walk_forwarding_path(fib, 0, 5)
        assert snap.state == "broken"
        assert snap.path == (0, 1)

    def test_loop_detected(self):
        fib = {0: 1, 1: 2, 2: 1}
        snap = walk_forwarding_path(fib, 0, 9)
        assert snap.state == "loop"
        assert snap.path == (0, 1, 2, 1)

    def test_src_is_dest(self):
        snap = walk_forwarding_path({}, 3, 3)
        assert snap.state == "ok"
        assert snap.path == (3,)


def _change(time, node, dest, new):
    return RouteChangeRecord(
        time=time, node=node, dest=dest, old_next_hop=None, new_next_hop=new
    )


class TestConvergenceTracker:
    def _tracker(self):
        sim = Simulator()
        bus = TraceBus()
        net = Network(sim, generators.line(3), bus)
        net.node(0).set_next_hop(2, 1)
        net.node(1).set_next_hop(2, 2)
        tracker = ConvergenceTracker(bus, dest=2, src=0)
        tracker.seed({node.id: node.next_hop(2) for node in net.iter_nodes()}, sim.now)
        return sim, bus, net, tracker

    def test_seed_captures_initial_path(self):
        sim, bus, net, tracker = self._tracker()
        assert tracker.final_path.path == (0, 1, 2)
        assert tracker.final_path.complete

    def test_route_change_updates_snapshot(self):
        sim, bus, net, tracker = self._tracker()
        bus.publish(_change(5.0, 1, 2, None))
        assert tracker.final_path.state == "broken"
        assert tracker.routing_convergence_time(detect_time=4.0) == pytest.approx(1.0)

    def test_changes_for_other_dest_ignored(self):
        sim, bus, net, tracker = self._tracker()
        bus.publish(_change(5.0, 1, 9, None))
        assert tracker.route_change_times == []

    def test_forwarding_convergence_delay(self):
        sim, bus, net, tracker = self._tracker()
        bus.publish(_change(5.0, 1, 2, None))  # break
        bus.publish(_change(8.0, 1, 2, 2))  # restore
        assert tracker.forwarding_convergence_delay(detect_time=5.0) == pytest.approx(3.0)

    def test_no_changes_after_detect_is_zero(self):
        sim, bus, net, tracker = self._tracker()
        bus.publish(_change(2.0, 1, 2, None))
        assert tracker.routing_convergence_time(detect_time=10.0) == 0.0
        assert tracker.forwarding_convergence_delay(detect_time=10.0) == 0.0

    def test_transient_paths_and_converged_to(self):
        sim, bus, net, tracker = self._tracker()
        bus.publish(_change(5.0, 1, 2, None))
        bus.publish(_change(8.0, 1, 2, 2))
        transients = tracker.transient_paths(since=5.0)
        assert [s.state for s in transients] == ["broken", "ok"]
        assert tracker.converged_to((0, 1, 2))
        assert not tracker.converged_to((0, 2))

    def test_duplicate_path_snapshots_coalesced(self):
        sim, bus, net, tracker = self._tracker()
        n_before = len(tracker.snapshots)
        # A remote change that does not alter the walked path.
        bus.publish(_change(5.0, 2, 2, None))
        assert len(tracker.snapshots) == n_before


class TestNetworkConvergenceWatcher:
    def test_tracks_last_change_any_dest(self):
        bus = TraceBus()
        watcher = NetworkConvergenceWatcher(bus)
        bus.publish(_change(3.0, 0, 7, 1))
        bus.publish(_change(9.0, 4, 2, None))
        assert watcher.change_times == [3.0, 9.0]
        assert watcher.convergence_time(detect_time=1.0) == pytest.approx(8.0)

    def test_zero_when_no_changes_after_detect(self):
        bus = TraceBus()
        watcher = NetworkConvergenceWatcher(bus)
        bus.publish(_change(3.0, 0, 7, 1))
        assert watcher.convergence_time(detect_time=5.0) == 0.0

    def test_zero_when_never_changed(self):
        watcher = NetworkConvergenceWatcher(TraceBus())
        assert watcher.convergence_time(detect_time=0.0) == 0.0
