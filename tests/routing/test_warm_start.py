"""Warm start must equal the converged cold-start state.

The experiment harness relies on ``warm_start`` installing exactly the state
a cold-started network converges to; these integration tests verify that
equivalence per protocol on small tie-free topologies, and that warm-started
networks are quiescent (no route churn, steady packet delivery).
"""

from __future__ import annotations

import pytest

from repro.net.packet import Packet
from repro.routing.bgp import BgpConfig
from repro.topology import generators
from repro.topology.graph import Topology

from ..conftest import build_network, metrics_match_shortest_paths, recorded

PROTOCOLS = ["rip", "dbf", "bgp", "spf"]
FAST_BGP = BgpConfig(mrai_base=0.5, mrai_jitter=0.1)


def tie_free_topology() -> Topology:
    """Ring of 5 plus a chord: unique shortest paths between all pairs."""
    topo = generators.ring(5)
    return topo


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestWarmEqualsConvergedCold:
    def _fibs(self, net):
        return {n.id: dict(n.fib) for n in net.iter_nodes()}

    def test_same_fibs_as_cold_convergence(self, protocol):
        topo = tie_free_topology()
        sim_c, net_c, _ = build_network(topo, protocol, bgp_config=FAST_BGP)
        net_c.start_protocols()
        sim_c.run(until=90.0)

        sim_w, net_w, _ = build_network(topo, protocol, bgp_config=FAST_BGP)
        for node in net_w.iter_nodes():
            node.protocol.warm_start(topo)

        assert self._fibs(net_c) == self._fibs(net_w)

    def test_warm_metrics_are_shortest(self, protocol):
        topo = tie_free_topology()
        sim, net, _ = build_network(topo, protocol, bgp_config=FAST_BGP)
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        assert metrics_match_shortest_paths(net)

    def test_warm_network_is_route_quiet(self, protocol):
        """No FIB churn during failure-free operation after warm start."""
        topo = tie_free_topology()
        sim, net, _ = build_network(topo, protocol, bgp_config=FAST_BGP)
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        recorded(net)["route"].clear()
        sim.run(until=120.0)
        assert recorded(net)["route"] == []

    def test_warm_network_delivers_traffic(self, protocol):
        topo = tie_free_topology()
        sim, net, _ = build_network(topo, protocol, bgp_config=FAST_BGP)
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        for i in range(10):
            sim.schedule_at(
                1.0 + i,
                lambda: net.node(0).originate(Packet(src=0, dst=2, size_bytes=64)),
            )
        sim.run(until=40.0)
        assert net.node(2).delivered == 10


class TestWarmStartOnMesh:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_paper_mesh_warm_start_is_quiet(self, protocol):
        from repro.topology.mesh import regular_mesh

        topo = regular_mesh(5, 5, 5)
        sim, net, _ = build_network(topo, protocol, bgp_config=FAST_BGP)
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        recorded(net)["route"].clear()
        sim.run(until=70.0)
        assert recorded(net)["route"] == []
