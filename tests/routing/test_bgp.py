"""Behavioral tests for the path-vector protocol (BGP / BGP-3)."""

from __future__ import annotations

import pytest

from repro.net.dynamics import LinkScheduler
from repro.routing.bgp import BgpConfig, BgpProtocol
from repro.routing.messages import PathVectorUpdate, PathVectorWithdrawal
from repro.routing.rib import PathAttr
from repro.sim.rng import RngStreams
from repro.topology import generators
from repro.topology.graph import Topology

from ..conftest import build_network, metrics_match_shortest_paths, recorded

FAST = BgpConfig(mrai_base=0.2, mrai_jitter=0.0, label="bgp")


def diamond() -> Topology:
    topo = Topology("diamond")
    for a, b in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        topo.connect(a, b)
    return topo


class TestColdConvergence:
    @pytest.mark.parametrize("topo_factory", [lambda: generators.line(4), diamond, lambda: generators.ring(5)])
    def test_converges_to_shortest_paths(self, topo_factory):
        sim, net, _ = build_network(topo_factory(), "bgp", bgp_config=FAST)
        net.start_protocols()
        sim.run(until=30.0)
        assert metrics_match_shortest_paths(net)

    def test_mesh_converges(self):
        from repro.topology.mesh import regular_mesh

        sim, net, _ = build_network(regular_mesh(3, 3, 4), "bgp", bgp_config=FAST)
        net.start_protocols()
        sim.run(until=60.0)
        assert metrics_match_shortest_paths(net)

    def test_no_refresh_needed_after_convergence(self):
        """BGP advertises once over the reliable session; long quiet periods
        must not lose routes (no periodic refresh, no timeout)."""
        sim, net, _ = build_network(generators.line(3), "bgp", bgp_config=FAST)
        net.start_protocols()
        sim.run(until=500.0)
        assert metrics_match_shortest_paths(net)


class TestLoopPrevention:
    def test_path_containing_self_treated_as_withdrawal(self):
        sim, net, _ = build_network(generators.line(3), "bgp", bgp_config=FAST)
        net.start_protocols()
        sim.run(until=10.0)
        proto1 = net.node(1).protocol
        # Node 0's advertisement of a path through node 1 must not be cached.
        assert 2 not in proto1.rib_in[0] or not proto1.rib_in[0][2].contains(1)

    def test_looped_update_removes_previous_path(self):
        sim, net, _ = build_network(generators.line(2), "none")
        proto = BgpProtocol(net.node(0), RngStreams(1), net, FAST)
        proto.start()
        sim.run()
        proto.handle_message(
            PathVectorUpdate(path=PathAttr.of((1, 9)), dests=(9,)), from_node=1
        )
        assert proto.route_metric(9) == 2
        # Same neighbor now reports a path that loops through us.
        proto.handle_message(
            PathVectorUpdate(path=PathAttr.of((1, 0, 9)), dests=(9,)), from_node=1
        )
        assert proto.route_metric(9) is None


class TestSelection:
    def test_shortest_path_preferred(self):
        sim, net, _ = build_network(generators.star(2), "none")
        proto = BgpProtocol(net.node(0), RngStreams(1), net, FAST)
        proto.start()
        proto.handle_message(
            PathVectorUpdate(path=PathAttr.of((1, 8, 9)), dests=(9,)), from_node=1
        )
        proto.handle_message(
            PathVectorUpdate(path=PathAttr.of((2, 9)), dests=(9,)), from_node=2
        )
        assert proto.node.next_hop(9) == 2
        assert proto.route_metric(9) == 2

    def test_tie_breaks_by_lowest_neighbor(self):
        sim, net, _ = build_network(generators.star(2), "none")
        proto = BgpProtocol(net.node(0), RngStreams(1), net, FAST)
        proto.start()
        proto.handle_message(
            PathVectorUpdate(path=PathAttr.of((2, 9)), dests=(9,)), from_node=2
        )
        proto.handle_message(
            PathVectorUpdate(path=PathAttr.of((1, 9)), dests=(9,)), from_node=1
        )
        assert proto.node.next_hop(9) == 1

    def test_withdrawal_falls_back_to_alternate(self):
        sim, net, _ = build_network(generators.star(2), "none")
        proto = BgpProtocol(net.node(0), RngStreams(1), net, FAST)
        proto.start()
        proto.handle_message(
            PathVectorUpdate(path=PathAttr.of((1, 9)), dests=(9,)), from_node=1
        )
        proto.handle_message(
            PathVectorUpdate(path=PathAttr.of((2, 9)), dests=(9,)), from_node=2
        )
        assert proto.node.next_hop(9) == 1
        proto.handle_message(PathVectorWithdrawal(dests=(9,)), from_node=1)
        assert proto.node.next_hop(9) == 2


class TestMrai:
    def _two_neighbor_speaker(self):
        sim, net, _ = build_network(generators.star(2), "none")
        trace = recorded(net)
        proto = BgpProtocol(
            net.node(0), RngStreams(1), net, BgpConfig(mrai_base=10.0, mrai_jitter=0.0)
        )
        # Leaves need speakers so channels can deliver.
        BgpProtocol(net.node(1), RngStreams(2), net, FAST)
        BgpProtocol(net.node(2), RngStreams(3), net, FAST)
        proto.start()
        # start() announces the self route, arming MRAI for 10 s; let that
        # initial timer drain so the tests begin from a quiet steady state.
        sim.run(until=12.0)
        return sim, net, trace, proto

    def test_second_change_held_by_mrai(self):
        sim, net, trace, proto = self._two_neighbor_speaker()
        # First learned route: announced immediately, arming MRAI.
        proto.handle_message(
            PathVectorUpdate(path=PathAttr.of((1, 9)), dests=(9,)), from_node=1
        )
        t_first = sim.now
        sim.run(until=14.0)
        # Change: the route lengthens; the re-announcement toward neighbor 2
        # must wait for MRAI expiry.
        proto.handle_message(
            PathVectorUpdate(path=PathAttr.of((2, 7, 9)), dests=(9,)), from_node=2
        )
        proto.handle_message(
            PathVectorUpdate(path=PathAttr.of((1, 7, 9)), dests=(9,)), from_node=1
        )
        sim.run(until=40.0)
        route9 = [
            m
            for m in trace["message"]
            if m.sender == 0
            and m.receiver == 2
            and not m.is_withdrawal
            and m.time >= t_first
        ]
        assert len(route9) >= 2
        assert route9[0].time == pytest.approx(t_first)
        assert route9[1].time - route9[0].time >= 10.0 - 1e-9

    def test_withdrawals_exempt_from_mrai(self):
        sim, net, trace, proto = self._two_neighbor_speaker()
        proto.handle_message(
            PathVectorUpdate(path=PathAttr.of((1, 9)), dests=(9,)), from_node=1
        )
        sim.run(until=14.0)
        # Route dies entirely: the withdrawal must go out immediately even
        # though MRAI timers are armed.
        proto.handle_message(PathVectorWithdrawal(dests=(9,)), from_node=1)
        withdrawals = [m for m in trace["message"] if m.sender == 0 and m.is_withdrawal]
        assert withdrawals
        assert withdrawals[-1].time == pytest.approx(sim.now)

    def test_per_destination_mrai_does_not_block_other_dests(self):
        sim, net, _ = build_network(generators.star(2), "none")
        trace = recorded(net)
        cfg = BgpConfig(mrai_base=10.0, mrai_jitter=0.0, per_destination_mrai=True)
        proto = BgpProtocol(net.node(0), RngStreams(1), net, cfg)
        BgpProtocol(net.node(1), RngStreams(2), net, FAST)
        BgpProtocol(net.node(2), RngStreams(3), net, FAST)
        proto.start()
        sim.run(until=1.0)
        proto.handle_message(
            PathVectorUpdate(path=PathAttr.of((1, 9)), dests=(9,)), from_node=1
        )
        t0 = sim.now
        proto.handle_message(
            PathVectorUpdate(path=PathAttr.of((1, 8)), dests=(8,)), from_node=1
        )
        sim.run(until=5.0)
        ann = [
            m
            for m in trace["message"]
            if m.sender == 0 and m.receiver == 2 and not m.is_withdrawal and m.time >= t0
        ]
        # Both destinations announced promptly (within the same event burst
        # window), none blocked behind the other's MRAI.
        assert len(ann) >= 2
        assert ann[1].time - ann[0].time < 1.0


class TestFailureResponse:
    def test_instant_switch_to_cached_alternate(self):
        topo = diamond()
        sim, net, _ = build_network(topo, "bgp", bgp_config=FAST)
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        injector = LinkScheduler(sim, net, detection_delay=0.05)
        assert net.node(0).next_hop(3) == 1
        injector.fail_link(0, 1, at=10.0)
        sim.run(until=10.051)
        assert net.node(0).next_hop(3) == 2

    def test_session_state_flushed_on_link_down(self):
        topo = diamond()
        sim, net, _ = build_network(topo, "bgp", bgp_config=FAST)
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        injector = LinkScheduler(sim, net, detection_delay=0.05)
        injector.fail_link(0, 1, at=10.0)
        sim.run(until=11.0)
        proto0 = net.node(0).protocol
        assert 1 not in proto0.rib_in
        assert 1 not in proto0._channels

    def test_closed_sessions_leave_their_link(self):
        topo = generators.line(2)
        sim, net, _ = build_network(topo, "bgp", bgp_config=FAST)
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        link = net.link(0, 1)
        injector = LinkScheduler(sim, net, detection_delay=0.05)
        injector.fail_link(0, 1, at=10.0)
        injector.restore_link(0, 1, at=20.0)
        injector.fail_link(0, 1, at=30.0)
        listeners = []
        for t in (10.1, 20.1, 30.1):
            sim.run(until=t)
            listeners.append(len(link.fail_listeners))
        # One session per direction while up, none once the failure is seen.
        assert listeners == [0, 2, 0]
        assert net.node(0).protocol._channels == {}

    def test_network_reconverges_after_failure(self):
        topo = diamond()
        sim, net, _ = build_network(topo, "bgp", bgp_config=FAST)
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        injector = LinkScheduler(sim, net, detection_delay=0.05)
        injector.fail_link(1, 3, at=10.0)
        sim.run(until=60.0)
        # All routes must avoid the dead link and be shortest in the new graph.
        assert net.node(0).next_hop(3) == 2
        assert net.node(1).next_hop(3) == 0
        assert net.node(1).protocol.route_metric(3) == 3

    def test_total_disconnection_withdraws_everywhere(self):
        topo = generators.line(3)
        sim, net, _ = build_network(topo, "bgp", bgp_config=FAST)
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        injector = LinkScheduler(sim, net, detection_delay=0.05)
        injector.fail_link(1, 2, at=10.0)
        sim.run(until=30.0)
        assert net.node(0).protocol.route_metric(2) is None
        assert net.node(1).protocol.route_metric(2) is None
