"""Behavioral tests for the link-state SPF extension."""

from __future__ import annotations

import pytest

from repro.net.dynamics import LinkScheduler
from repro.routing.spf import Lsa, SpfProtocol
from repro.sim.rng import RngStreams
from repro.topology import generators
from repro.topology.graph import Topology

from ..conftest import build_network, metrics_match_shortest_paths, recorded


def diamond() -> Topology:
    topo = Topology("diamond")
    for a, b in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        topo.connect(a, b)
    return topo


class TestColdConvergence:
    @pytest.mark.parametrize(
        "topo_factory", [lambda: generators.line(4), diamond, lambda: generators.ring(6)]
    )
    def test_flooding_converges(self, topo_factory):
        sim, net, _ = build_network(topo_factory(), "spf")
        net.start_protocols()
        sim.run(until=5.0)
        assert metrics_match_shortest_paths(net)

    def test_mesh_converges(self):
        from repro.topology.mesh import regular_mesh

        sim, net, _ = build_network(regular_mesh(4, 4, 6), "spf")
        net.start_protocols()
        sim.run(until=5.0)
        assert metrics_match_shortest_paths(net)


class TestFlooding:
    def test_duplicate_lsas_suppressed(self):
        sim, net, _ = build_network(generators.ring(4), "spf")
        net.start_protocols()
        sim.run(until=5.0)
        before = sum(n.protocol.messages_sent for n in net.iter_nodes())
        # Re-delivering a stale LSA must not restart the flood.
        proto = net.node(0).protocol
        stale = proto.database[2]
        proto.handle_message(stale, from_node=1)
        sim.run(until=6.0)
        after = sum(n.protocol.messages_sent for n in net.iter_nodes())
        assert after == before

    def test_higher_seq_replaces_and_refloods(self):
        sim, net, _ = build_network(generators.line(3), "spf")
        net.start_protocols()
        sim.run(until=5.0)
        proto0 = net.node(0).protocol
        newer = Lsa(origin=2, seq=99, adjacencies=((1, 1),))
        proto0.handle_message(newer, from_node=1)
        assert proto0.database[2].seq == 99


class TestFailureResponse:
    def test_recompute_after_failure(self):
        topo = diamond()
        sim, net, _ = build_network(topo, "spf")
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        injector = LinkScheduler(sim, net, detection_delay=0.05)
        assert net.node(0).next_hop(3) == 1
        injector.fail_link(1, 3, at=10.0)
        sim.run(until=11.0)
        assert net.node(0).next_hop(3) == 2
        assert net.node(1).next_hop(3) == 0

    def test_two_way_connectivity_check(self):
        """An LSA claiming a dead adjacency is ignored until both ends agree."""
        topo = diamond()
        sim, net, _ = build_network(topo, "spf")
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        proto0 = net.node(0).protocol
        # Node 1 stops claiming the 1-3 adjacency; 3 still claims it.
        proto0.handle_message(
            Lsa(origin=1, seq=50, adjacencies=((0, 1),)), from_node=1
        )
        assert proto0.node.next_hop(3) == 2  # 1-3 no longer usable

    def test_disconnection_withdraws_routes(self):
        topo = generators.line(3)
        sim, net, _ = build_network(topo, "spf")
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        injector = LinkScheduler(sim, net, detection_delay=0.05)
        injector.fail_link(1, 2, at=10.0)
        sim.run(until=12.0)
        assert net.node(0).next_hop(2) is None
        assert net.node(0).protocol.route_metric(2) is None


class TestWarmStart:
    def test_warm_start_installs_shortest_paths(self):
        topo = diamond()
        sim, net, _ = build_network(topo, "spf")
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        assert metrics_match_shortest_paths(net)

    def test_warm_start_quiet_afterwards(self):
        topo = diamond()
        sim, net, _ = build_network(topo, "spf")
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        recorded(net)["route"].clear()
        sim.run(until=60.0)
        assert recorded(net)["route"] == []
