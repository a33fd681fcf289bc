"""Behavioral tests for DUAL (loop-free diffusing computations)."""

from __future__ import annotations

import pytest

from repro.metrics.convergence import ConvergenceTracker
from repro.net.dynamics import LinkScheduler
from repro.routing.dual import DualProtocol, DualQuery, DualReply, DualUpdate, INFINITY
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
        "topo_factory",
        [lambda: generators.line(4), diamond, lambda: generators.ring(5)],
    )
    def test_converges_to_shortest_paths(self, topo_factory):
        sim, net, _ = build_network(topo_factory(), "dual")
        net.start_protocols()
        sim.run(until=10.0)
        assert metrics_match_shortest_paths(net)

    def test_mesh_converges(self):
        from repro.topology.mesh import regular_mesh

        sim, net, _ = build_network(regular_mesh(4, 4, 5), "dual")
        net.start_protocols()
        sim.run(until=20.0)
        assert metrics_match_shortest_paths(net)

    def test_no_refresh_needed(self):
        sim, net, _ = build_network(generators.line(3), "dual")
        net.start_protocols()
        sim.run(until=500.0)
        assert metrics_match_shortest_paths(net)


class TestFeasibility:
    def test_local_computation_on_feasible_alternate(self):
        """With a feasible successor available, the switch is instant — no
        diffusion."""
        topo = diamond()
        sim, net, _ = build_network(topo, "dual")
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        trace = recorded(net)
        injector = LinkScheduler(sim, net, detection_delay=0.05)
        injector.fail_link(0, 1, at=10.0)
        sim.run(until=10.06)
        # Neighbor 2 advertises distance 1 < FD 2: feasible, so the switch
        # for dest 3 happens at the detection instant (no diffusion wait).
        assert net.node(0).next_hop(3) == 2
        switch = [
            r for r in trace["route"] if r.node == 0 and r.dest == 3 and r.time >= 10.0
        ]
        assert switch and switch[-1].time == pytest.approx(10.05)

    def test_diffusion_when_no_feasible_successor(self):
        """On a line, the midpoint has no feasible alternate: it must diffuse
        and the destination is unreachable meanwhile."""
        topo = generators.line(3)
        sim, net, _ = build_network(topo, "dual")
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        proto1 = net.node(1).protocol
        injector = LinkScheduler(sim, net, detection_delay=0.05)
        injector.fail_link(1, 2, at=10.0)
        sim.run(until=60.0)
        assert proto1.diffusions_started >= 1
        assert net.node(1).protocol.route_metric(2) is None
        assert net.node(0).protocol.route_metric(2) is None

    def test_counting_to_next_best_via_diffusion(self):
        """Ring: losing the direct link forces the long way round, which is
        infeasible (longer than FD) — a diffusion resolves it correctly."""
        topo = generators.ring(5)
        sim, net, _ = build_network(topo, "dual")
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        injector = LinkScheduler(sim, net, detection_delay=0.05)
        injector.fail_link(0, 1, at=10.0)
        sim.run(until=60.0)
        assert net.node(0).protocol.route_metric(1) == 4
        assert net.node(0).next_hop(1) == 4


class TestLoopFreedom:
    @pytest.mark.parametrize("degree", [3, 4, 5, 6])
    def test_never_a_transient_forwarding_loop(self, degree):
        """DUAL's defining guarantee: the sender->receiver walk never loops,
        at any instant during convergence."""
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.scenario import run_scenario
        from repro.metrics.convergence import ConvergenceTracker

        trackers = []
        original = ConvergenceTracker.seed

        def capture(self, next_hops, time):
            trackers.append(self)
            return original(self, next_hops, time)

        ConvergenceTracker.seed = capture
        try:
            cfg = ExperimentConfig.quick().with_(post_fail_window=40.0)
            for seed in (1, 2, 3, 4):
                trackers.clear()
                r = run_scenario("dual", degree, seed, cfg)
                assert r.drops_ttl == 0
                states = [s.state for s in trackers[0].snapshots]
                assert "loop" not in states
        finally:
            ConvergenceTracker.seed = original


class TestQueryReplyMachinery:
    def _speaker(self):
        sim, net, _ = build_network(generators.star(2), "none")
        proto = DualProtocol(net.node(0), RngStreams(1), net)
        peers = {}
        for leaf in (1, 2):
            peers[leaf] = []

            class Peer:
                def __init__(self, sink):
                    self.sink = sink

                def handle_message(self, payload, from_node):
                    self.sink.append(payload)

                def apply_message(self, payload, from_node):
                    self.handle_message(payload, from_node)

                def start(self):
                    pass

            net.node(leaf).attach_protocol(Peer(peers[leaf]))
        proto.start()
        sim.run(until=1.0)
        return sim, net, proto, peers

    def test_query_to_destination_itself_gets_zero_reply(self):
        sim, net, proto, peers = self._speaker()
        proto.handle_message(DualQuery(routes=((0, 5.0),)), from_node=1)
        sim.run(until=2.0)
        replies = [p for p in peers[1] if isinstance(p, DualReply)]
        assert replies and replies[-1].routes == ((0, 0.0),)

    def test_update_learns_route(self):
        sim, net, proto, peers = self._speaker()
        proto.handle_message(DualUpdate(routes=((9, 2.0),)), from_node=1)
        assert proto.route_metric(9) == 3
        assert net.node(0).next_hop(9) == 1

    def test_worsening_successor_without_alternate_triggers_diffusion(self):
        sim, net, proto, peers = self._speaker()
        proto.handle_message(DualUpdate(routes=((9, 2.0),)), from_node=1)
        before = proto.diffusions_started
        proto.handle_message(DualUpdate(routes=((9, 10.0),)), from_node=1)
        assert proto.diffusions_started == before + 1
        sim.run(until=5.0)  # let the queries propagate over the channels
        assert any(isinstance(p, DualQuery) for p in peers[1])
        assert any(isinstance(p, DualQuery) for p in peers[2])
        # Replies complete the diffusion with the (worse) route accepted.
        proto.handle_message(DualReply(routes=((9, 10.0),)), from_node=1)
        proto.handle_message(DualReply(routes=((9, INFINITY),)), from_node=2)
        assert proto.route_metric(9) == 11

    def test_feasible_switch_avoids_diffusion(self):
        sim, net, proto, peers = self._speaker()
        proto.handle_message(DualUpdate(routes=((9, 5.0),)), from_node=1)
        proto.handle_message(DualUpdate(routes=((9, 3.0),)), from_node=2)
        assert net.node(0).next_hop(9) == 2
        before = proto.diffusions_started
        # Successor worsens but neighbor 1 (adv 5) is NOT feasible (5 >= FD 4)
        # ... wait: FD is 4, adv 5 >= 4 -> infeasible -> diffusion expected.
        proto.handle_message(DualUpdate(routes=((9, 9.0),)), from_node=2)
        assert proto.diffusions_started == before + 1


class TestWarmStart:
    def test_warm_quiet(self):
        topo = generators.ring(5)
        sim, net, _ = build_network(topo, "dual")
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        recorded(net)["route"].clear()
        sim.run(until=120.0)
        assert recorded(net)["route"] == []

    def test_warm_equals_cold(self):
        topo = generators.ring(5)
        sim_c, net_c, _ = build_network(topo, "dual")
        net_c.start_protocols()
        sim_c.run(until=30.0)
        sim_w, net_w, _ = build_network(topo, "dual")
        for node in net_w.iter_nodes():
            node.protocol.warm_start(topo)
        fibs = lambda net: {n.id: dict(n.fib) for n in net.iter_nodes()}
        assert fibs(net_c) == fibs(net_w)
