"""Tests for BGP sender-side loop detection (SSLD ablation)."""

from __future__ import annotations

import pytest

from repro.routing.bgp import BgpConfig, BgpProtocol
from repro.routing.messages import PathVectorUpdate
from repro.routing.rib import PathAttr
from repro.sim.rng import RngStreams
from repro.topology import generators

from ..conftest import build_network, metrics_match_shortest_paths, recorded

SSLD = BgpConfig(
    mrai_base=0.2, mrai_jitter=0.0, sender_side_loop_detection=True, label="bgp-ssld"
)


class TestSsld:
    def test_does_not_announce_looping_path_to_on_path_neighbor(self):
        sim, net, _ = build_network(generators.line(3), "bgp", bgp_config=SSLD)
        net.start_protocols()
        sim.run(until=10.0)
        bus = net.bus
        # Node 1 routes to 2 via 2 directly; its best path to 2 is [2].  Node
        # 0's best path to 2 is [1, 2]; with SSLD node 0 never announces that
        # path to node 1 (it contains 1).
        proto1 = net.node(1).protocol
        assert 2 not in proto1.rib_in.get(0, {})

    def test_converges_identically_to_receiver_side(self):
        topo = generators.ring(5)
        sim, net, _ = build_network(topo, "bgp", bgp_config=SSLD)
        net.start_protocols()
        sim.run(until=30.0)
        assert metrics_match_shortest_paths(net)

    def test_ssld_sends_fewer_messages(self):
        def run(config):
            topo = generators.ring(5)
            sim, net, _ = build_network(topo, "bgp", bgp_config=config)
            net.start_protocols()
            sim.run(until=30.0)
            return sum(n.protocol.messages_sent for n in net.iter_nodes())

        plain = run(BgpConfig(mrai_base=0.2, mrai_jitter=0.0))
        ssld = run(SSLD)
        assert ssld < plain

    def test_warm_start_rib_out_consistent(self):
        topo = generators.ring(5)
        sim, net, _ = build_network(topo, "bgp", bgp_config=SSLD)
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        recorded(net)["route"].clear()
        recorded(net)["message"].clear()
        sim.run(until=60.0)
        # Quiet: warm rib_out matched what SSLD would actually have sent.
        assert recorded(net)["route"] == []
        assert recorded(net)["message"] == []

    def test_export_suppression_recorded_as_withdrawal_when_needed(self):
        """If a previously announced path changes to one containing the
        neighbor, SSLD withdraws it from that neighbor."""
        sim, net, _ = build_network(generators.star(2), "none")
        proto = BgpProtocol(net.node(0), RngStreams(1), net, SSLD)
        recorded = []

        class Peer:
            def __init__(self, node):
                self.node = node

            def handle_message(self, payload, from_node):
                recorded.append(payload)

            def apply_message(self, payload, from_node):
                self.handle_message(payload, from_node)

            def start(self):
                pass

        net.node(1).attach_protocol(Peer(net.node(1)))
        net.node(2).attach_protocol(Peer(net.node(2)))
        proto.start()
        sim.run(until=1.0)
        # Learn dest 9 via neighbor 2 -> announced to 1 (path [0,2,9]).
        proto.handle_message(
            PathVectorUpdate(path=PathAttr.of((2, 9)), dests=(9,)), from_node=2
        )
        sim.run(until=2.0)
        assert 9 in proto.rib_out[1]
        # Best switches to a path through neighbor 1 -> SSLD must withdraw
        # dest 9 from neighbor 1 rather than announce the looping path.
        proto.handle_message(
            PathVectorUpdate(path=PathAttr.of((2, 8, 9)), dests=(9,)), from_node=2
        )
        proto.handle_message(
            PathVectorUpdate(path=PathAttr.of((1, 9)), dests=(9,)), from_node=1
        )
        sim.run(until=10.0)
        assert 9 not in proto.rib_out[1]
