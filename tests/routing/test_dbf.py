"""Behavioral tests for DBF (distance vector with alternate-path cache)."""

from __future__ import annotations

import pytest

from repro.net.dynamics import LinkScheduler
from repro.routing.dbf import DbfProtocol
from repro.routing.dv_common import DistanceVectorConfig
from repro.routing.messages import DistanceVectorUpdate
from repro.sim.rng import RngStreams
from repro.topology import generators
from repro.topology.graph import Topology

from ..conftest import build_network, metrics_match_shortest_paths, recorded


def diamond() -> Topology:
    """0-1, 0-2, 1-3, 2-3: two disjoint equal-cost paths from 0 to 3."""
    topo = Topology("diamond")
    for a, b in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        topo.connect(a, b)
    return topo


class TestColdConvergence:
    def test_line_converges(self):
        sim, net, _ = build_network(generators.line(4), "dbf")
        net.start_protocols()
        sim.run(until=40.0)
        assert metrics_match_shortest_paths(net)

    def test_diamond_converges(self):
        sim, net, _ = build_network(diamond(), "dbf")
        net.start_protocols()
        sim.run(until=40.0)
        assert metrics_match_shortest_paths(net)

    def test_mesh_converges(self):
        from repro.topology.mesh import regular_mesh

        sim, net, _ = build_network(regular_mesh(3, 3, 5), "dbf")
        net.start_protocols()
        sim.run(until=60.0)
        assert metrics_match_shortest_paths(net)


class TestInstantSwitchOver:
    def test_zero_time_path_switch_over(self):
        """The paper's defining DBF property: on failure detection, the router
        switches to a cached alternate in the same instant."""
        topo = diamond()
        sim, net, _ = build_network(topo, "dbf")
        trace = recorded(net)
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        assert net.node(0).next_hop(3) == 1  # tie-break: lowest neighbor
        injector = LinkScheduler(sim, net, detection_delay=0.05)
        injector.fail_link(0, 1, at=10.0)
        sim.run(until=10.051)
        # Switched at the detection instant, not a periodic interval later.
        assert net.node(0).next_hop(3) == 2
        changes = [
            r for r in trace["route"] if r.node == 0 and r.dest == 3
        ]
        assert changes[-1].time == pytest.approx(10.05)

    def test_alternate_respects_poison_reverse(self):
        """A neighbor that routes through us advertises infinity, so it is
        never chosen as the alternate (two-hop loop prevention)."""
        topo = generators.line(3)  # 0-1-2
        sim, net, _ = build_network(topo, "dbf")
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        proto1 = net.node(1).protocol
        # Node 0 routes to 2 through node 1, so its cached advert is poisoned.
        assert proto1.cache.advertised(0, 2) == proto1.config.infinity
        injector = LinkScheduler(sim, net, detection_delay=0.05)
        injector.fail_link(1, 2, at=5.0)
        sim.run(until=6.0)
        assert net.node(1).next_hop(2) is None  # no valid alternate exists


class TestCacheSemantics:
    def test_cache_stores_raw_advertised_metric(self):
        sim, net, _ = build_network(generators.line(2), "none")
        proto = DbfProtocol(net.node(0), RngStreams(1))
        proto.start()
        proto.handle_message(DistanceVectorUpdate(routes=((9, 3),)), from_node=1)
        assert proto.cache.advertised(1, 9) == 3
        assert proto.route_metric(9) == 4  # +1 link cost

    def test_infinity_advert_cached_not_distorted(self):
        sim, net, _ = build_network(generators.line(2), "none")
        proto = DbfProtocol(net.node(0), RngStreams(1))
        proto.start()
        inf = proto.config.infinity
        proto.handle_message(DistanceVectorUpdate(routes=((9, inf),)), from_node=1)
        assert proto.cache.advertised(1, 9) == inf
        assert proto.route_metric(9) is None

    def test_reselect_picks_next_best_after_worsening(self):
        sim, net, _ = build_network(generators.star(2), "none")
        proto = DbfProtocol(net.node(0), RngStreams(1))
        proto.start()
        proto.handle_message(DistanceVectorUpdate(routes=((9, 1),)), from_node=1)
        proto.handle_message(DistanceVectorUpdate(routes=((9, 2),)), from_node=2)
        assert proto.node.next_hop(9) == 1
        # Current best worsens past the cached alternate: switch immediately.
        proto.handle_message(DistanceVectorUpdate(routes=((9, 7),)), from_node=1)
        assert proto.node.next_hop(9) == 2
        assert proto.route_metric(9) == 3

    def test_neighbor_loss_forgets_cache(self):
        sim, net, _ = build_network(generators.star(2), "none")
        proto = DbfProtocol(net.node(0), RngStreams(1))
        proto.start()
        proto.handle_message(DistanceVectorUpdate(routes=((9, 1),)), from_node=1)
        net.link(0, 1).fail()
        proto.handle_link_down(1)
        assert proto.cache.advertised(1, 9) == proto.config.infinity
        assert proto.route_metric(9) is None


class TestCountingToNextBest:
    def test_counts_to_next_best_not_infinity(self):
        """Paper §6: with redundant connectivity, a distance-vector protocol
        counts to the next-best path instead of counting to infinity."""
        # Ring of 5: after (0, 1) fails, 0's path to 1 is the long way round.
        topo = generators.ring(5)
        sim, net, _ = build_network(topo, "dbf")
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        injector = LinkScheduler(sim, net, detection_delay=0.05)
        injector.fail_link(0, 1, at=10.0)
        sim.run(until=60.0)
        assert net.node(0).protocol.route_metric(1) == 4
        assert net.node(0).next_hop(1) == 4

    def test_disconnection_counts_to_infinity_and_stops(self):
        config = DistanceVectorConfig(infinity=16)
        topo = generators.line(3)
        sim, net, _ = build_network(topo, "dbf", dv_config=config)
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        injector = LinkScheduler(sim, net, detection_delay=0.05)
        injector.fail_link(0, 1, at=10.0)
        sim.run(until=120.0)
        assert net.node(0).protocol.route_metric(2) is None
        assert net.node(2).protocol.route_metric(0) is None
