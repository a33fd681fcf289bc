"""Behavioral tests for RIP (best-route-only distance vector)."""

from __future__ import annotations

import pytest

from repro.net.dynamics import LinkScheduler
from repro.routing.dv_common import DistanceVectorConfig
from repro.routing.messages import DistanceVectorUpdate
from repro.routing.rip import RipProtocol
from repro.sim.rng import RngStreams
from repro.topology import generators

from ..conftest import build_network, metrics_match_shortest_paths, recorded


class TestColdConvergence:
    def test_line_converges_to_shortest_paths(self):
        sim, net, _ = build_network(generators.line(4), "rip")
        net.start_protocols()
        sim.run(until=40.0)
        assert metrics_match_shortest_paths(net)

    def test_ring_converges(self):
        sim, net, _ = build_network(generators.ring(5), "rip")
        net.start_protocols()
        sim.run(until=40.0)
        assert metrics_match_shortest_paths(net)

    def test_mesh_converges(self):
        from repro.topology.mesh import regular_mesh

        sim, net, _ = build_network(regular_mesh(3, 3, 4), "rip")
        net.start_protocols()
        sim.run(until=60.0)
        assert metrics_match_shortest_paths(net)


class TestPoisonReverse:
    def test_routes_via_receiver_advertised_as_infinity(self):
        sim, net, _ = build_network(generators.line(3), "rip")
        net.start_protocols()
        sim.run(until=40.0)
        proto0 = net.node(0).protocol
        # Node 0 routes to 2 via 1; its advertisement to 1 must poison dest 2.
        assert proto0._advertised_metric(2, 1) == proto0.config.infinity
        # ...but not to other neighbors (none here) / for other dests.
        assert proto0._advertised_metric(0, 1) == 0


class TestFailureResponse:
    def test_no_alternate_path_until_periodic_update(self):
        """The paper's §4.1: RIP keeps no alternates, so after a failure the
        route stays dead until another neighbor's periodic update arrives."""
        # Square: 0-1, 1-3, 0-2, 2-3; traffic dest is 3.
        topo = generators.ring(4)  # 0-1-2-3-0
        sim, net, _ = build_network(topo, "rip")
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        injector = LinkScheduler(sim, net, detection_delay=0.05)
        # Node 0 reaches 2 via 1 (tie-break); fail (0, 1).
        assert net.node(0).next_hop(2) == 1
        injector.fail_link(0, 1, at=10.0)
        sim.run(until=10.2)
        # Immediately after detection: no route (RIP has no cache).
        assert net.node(0).next_hop(2) is None
        sim.run(until=50.0)
        # A periodic update from node 3 eventually restores reachability.
        assert net.node(0).next_hop(2) == 3

    def test_link_down_poisons_routes_through_dead_neighbor(self):
        topo = generators.line(3)
        sim, net, _ = build_network(topo, "rip")
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        injector = LinkScheduler(sim, net, detection_delay=0.05)
        injector.fail_link(1, 2, at=5.0)
        sim.run(until=6.0)
        # 1 lost its only path to 2; 0 learns via 1's triggered poison.
        assert net.node(1).protocol.route_metric(2) is None
        assert net.node(0).protocol.route_metric(2) is None

    def test_triggered_poison_propagates_fast(self):
        topo = generators.line(5)
        sim, net, _ = build_network(topo, "rip")
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        injector = LinkScheduler(sim, net, detection_delay=0.05)
        injector.fail_link(3, 4, at=5.0)
        sim.run(until=5.5)  # well before any periodic interval
        assert net.node(0).protocol.route_metric(4) is None


class TestRouteAging:
    def test_unrefreshed_route_times_out(self):
        config = DistanceVectorConfig(route_timeout=40.0, garbage_collect=10.0)
        sim, net, rng = build_network(generators.line(2), "none")
        proto = RipProtocol(net.node(0), RngStreams(1), config)
        proto.start()
        proto.handle_message(DistanceVectorUpdate(routes=((9, 1),)), from_node=1)
        assert proto.route_metric(9) == 2
        sim.run(until=39.0)
        assert proto.route_metric(9) == 2
        sim.run(until=45.0)
        assert proto.route_metric(9) is None

    def test_refresh_resets_timeout(self):
        config = DistanceVectorConfig(route_timeout=40.0, garbage_collect=10.0)
        sim, net, _ = build_network(generators.line(2), "none")
        proto = RipProtocol(net.node(0), RngStreams(1), config)
        proto.start()
        proto.handle_message(DistanceVectorUpdate(routes=((9, 1),)), from_node=1)
        sim.schedule_at(30.0, lambda: proto.handle_message(
            DistanceVectorUpdate(routes=((9, 1),)), from_node=1
        ))
        sim.run(until=60.0)
        assert proto.route_metric(9) == 2  # refreshed at t=30, expires at 70
        sim.run(until=75.0)
        assert proto.route_metric(9) is None

    def test_poisoned_route_garbage_collected(self):
        config = DistanceVectorConfig(route_timeout=40.0, garbage_collect=5.0)
        sim, net, _ = build_network(generators.line(2), "none")
        proto = RipProtocol(net.node(0), RngStreams(1), config)
        proto.start()
        proto.handle_message(DistanceVectorUpdate(routes=((9, 1),)), from_node=1)
        proto.handle_message(
            DistanceVectorUpdate(routes=((9, config.infinity),)), from_node=1
        )
        assert proto.route_metric(9) is None
        assert 9 in proto.table  # poisoned, not yet collected
        sim.run(until=6.0)
        assert 9 not in proto.table


class TestRouteSelection:
    def test_update_from_current_next_hop_always_adopted(self):
        sim, net, _ = build_network(generators.line(2), "none")
        proto = RipProtocol(net.node(0), RngStreams(1))
        proto.start()
        proto.handle_message(DistanceVectorUpdate(routes=((9, 1),)), from_node=1)
        assert proto.route_metric(9) == 2
        # Same next hop reports a worse metric: adopt it (count up).
        proto.handle_message(DistanceVectorUpdate(routes=((9, 5),)), from_node=1)
        assert proto.route_metric(9) == 6

    def test_worse_route_from_other_neighbor_ignored(self):
        sim, net, _ = build_network(generators.star(2), "none")  # hub 0, leaves 1,2
        proto = RipProtocol(net.node(0), RngStreams(1))
        proto.start()
        proto.handle_message(DistanceVectorUpdate(routes=((9, 1),)), from_node=1)
        proto.handle_message(DistanceVectorUpdate(routes=((9, 5),)), from_node=2)
        assert proto.route_metric(9) == 2
        assert proto.node.next_hop(9) == 1

    def test_better_route_from_other_neighbor_adopted(self):
        sim, net, _ = build_network(generators.star(2), "none")
        proto = RipProtocol(net.node(0), RngStreams(1))
        proto.start()
        proto.handle_message(DistanceVectorUpdate(routes=((9, 5),)), from_node=1)
        proto.handle_message(DistanceVectorUpdate(routes=((9, 1),)), from_node=2)
        assert proto.route_metric(9) == 2
        assert proto.node.next_hop(9) == 2

    def test_infinity_advert_for_unknown_dest_ignored(self):
        sim, net, _ = build_network(generators.line(2), "none")
        proto = RipProtocol(net.node(0), RngStreams(1))
        proto.start()
        proto.handle_message(
            DistanceVectorUpdate(routes=((9, proto.config.infinity),)), from_node=1
        )
        assert 9 not in proto.table


class TestTriggeredUpdateDamping:
    def test_consecutive_triggered_updates_are_spaced(self):
        sim, net, _ = build_network(generators.line(2), "none")
        trace = recorded(net)
        proto = RipProtocol(net.node(0), RngStreams(1))
        proto.start()
        proto._periodic.stop()  # isolate triggered updates from periodic ones
        # Two changes in quick succession.
        proto.handle_message(DistanceVectorUpdate(routes=((9, 1),)), from_node=1)
        sim.run(until=0.1)
        proto.handle_message(DistanceVectorUpdate(routes=((8, 1),)), from_node=1)
        sim.run(until=10.0)
        triggered = [
            m for m in trace["message"] if m.protocol == "rip" and m.sender == 0
        ]
        assert len(triggered) >= 2
        gap = triggered[1].time - triggered[0].time
        assert 1.0 - 1e-9 <= gap  # damping timer is U(1, 5)
