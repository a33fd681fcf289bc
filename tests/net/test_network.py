"""Unit tests for network construction and aggregation."""

from __future__ import annotations

import pytest

from repro.net.network import Network
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.tracing import DropCause, TraceBus
from repro.topology import generators
from repro.topology.mesh import regular_mesh


class TestConstruction:
    def test_one_node_per_topology_node(self):
        topo = regular_mesh(3, 3, 4)
        net = Network(Simulator(), topo)
        assert set(net.nodes) == topo.nodes

    def test_one_link_per_topology_link(self):
        topo = regular_mesh(3, 3, 4)
        net = Network(Simulator(), topo)
        assert set(net.links) == set(topo.links)

    def test_nodes_know_their_neighbors(self):
        topo = generators.ring(5)
        net = Network(Simulator(), topo)
        assert net.node(0).neighbors() == [1, 4]

    def test_link_lookup_is_order_insensitive(self):
        net = Network(Simulator(), generators.line(3))
        assert net.link(0, 1) is net.link(1, 0)

    def test_iter_orders_deterministic(self):
        net = Network(Simulator(), generators.ring(4))
        assert [n.id for n in net.iter_nodes()] == [0, 1, 2, 3]
        assert [l.endpoints for l in net.iter_links()] == sorted(
            l.endpoints for l in net.iter_links()
        )


class TestProtocolAttachment:
    def test_attach_protocols_runs_factory_per_node(self):
        net = Network(Simulator(), generators.line(3))
        created = []

        class P:
            def __init__(self, node):
                created.append(node.id)

            def start(self):
                pass

        net.attach_protocols(lambda node: P(node))
        assert created == [0, 1, 2]
        assert all(n.protocol is not None for n in net.iter_nodes())

    def test_start_protocols(self):
        net = Network(Simulator(), generators.line(2))
        started = []

        class P:
            def __init__(self, node):
                self.node = node

            def start(self):
                started.append(self.node.id)

        net.attach_protocols(lambda node: P(node))
        net.start_protocols()
        assert started == [0, 1]


class TestAggregates:
    def test_totals(self):
        sim = Simulator()
        net = Network(sim, generators.line(3))
        net.node(0).set_next_hop(2, 1)
        net.node(1).set_next_hop(2, 2)
        net.node(0).originate(Packet(src=0, dst=2))
        net.node(0).originate(Packet(src=0, dst=2))
        sim.run()
        assert net.total_delivered() == 2
        assert net.total_drops(DropCause.NO_ROUTE) == 0

    def test_total_drops_by_cause(self):
        sim = Simulator()
        net = Network(sim, generators.line(3))
        net.node(0).set_next_hop(2, 1)  # node 1 has no route
        net.node(0).originate(Packet(src=0, dst=2))
        sim.run()
        assert net.total_drops(DropCause.NO_ROUTE) == 1
        assert net.total_delivered() == 0
