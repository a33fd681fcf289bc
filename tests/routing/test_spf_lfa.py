"""Tests for SPF throttling and Loop-Free Alternate fast reroute."""

from __future__ import annotations

import pytest

from repro.net.dynamics import LinkScheduler
from repro.routing.spf import SpfConfig, SpfProtocol
from repro.sim.rng import RngStreams
from repro.topology import generators
from repro.topology.graph import Topology

from ..conftest import build_network


def diamond() -> Topology:
    topo = Topology("diamond")
    for a, b in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        topo.connect(a, b)
    return topo


def build_spf(topo, config):
    from repro.net.network import Network
    from repro.sim.engine import Simulator

    sim = Simulator()
    net = Network(sim, topo)
    rng = RngStreams(1)
    net.attach_protocols(lambda node: SpfProtocol(node, rng, config))
    for node in net.iter_nodes():
        node.protocol.warm_start(topo)
    return sim, net


class TestSpfConfig:
    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            SpfConfig(spf_delay=-1.0)

    def test_label_controls_name(self):
        sim, net = build_spf(diamond(), SpfConfig(label="spf-x"))
        assert net.node(0).protocol.name == "spf-x"


class TestSpfThrottling:
    def test_delayed_recompute(self):
        config = SpfConfig(spf_delay=2.0)
        topo = diamond()
        sim, net = build_spf(topo, config)
        injector = LinkScheduler(sim, net, detection_delay=0.05)
        injector.fail_link(1, 3, at=10.0)
        sim.run(until=11.0)
        # Detection at 10.05, recompute throttled until 12.05: stale route.
        assert net.node(0).next_hop(3) == 1
        sim.run(until=13.0)
        assert net.node(0).next_hop(3) == 2

    def test_throttle_coalesces_recomputations(self):
        config = SpfConfig(spf_delay=2.0)
        topo = diamond()
        sim, net = build_spf(topo, config)
        proto = net.node(0).protocol
        before = proto.recomputations
        injector = LinkScheduler(sim, net, detection_delay=0.05)
        injector.fail_link(1, 3, at=10.0)
        sim.run(until=20.0)
        # Both endpoints' LSAs arrive within the throttle window -> 1 run.
        assert proto.recomputations == before + 1


class TestLfa:
    def test_backups_precomputed_on_diamond(self):
        config = SpfConfig(lfa=True)
        topo = diamond()
        sim, net = build_spf(topo, config)
        proto = net.node(0).protocol
        # 0's primary to 3 is via 1; neighbor 2 satisfies the LFA condition
        # (dist(2,3)=1 < dist(2,0)+dist(0,3)=1+2).
        assert net.node(0).next_hop(3) == 1
        assert proto.backups.get(3) == 2

    def test_instant_backup_activation_on_failure(self):
        config = SpfConfig(spf_delay=5.0, lfa=True)
        topo = diamond()
        sim, net = build_spf(topo, config)
        injector = LinkScheduler(sim, net, detection_delay=0.05)
        injector.fail_link(0, 1, at=10.0)
        sim.run(until=10.1)
        # Recompute is throttled until ~15 s, but the LFA switched already.
        assert net.node(0).next_hop(3) == 2
        assert net.node(0).protocol.lfa_activations >= 1

    def test_no_backup_when_condition_fails(self):
        # Line 0-1-2: node 1's neighbor 0 routes to 2 through 1 itself,
        # violating the loop-free condition -> no backup.
        config = SpfConfig(lfa=True)
        sim, net = build_spf(generators.line(3), config)
        proto = net.node(1).protocol
        assert 2 not in proto.backups

    def test_backup_never_equals_primary(self):
        config = SpfConfig(lfa=True)
        from repro.topology.mesh import regular_mesh

        sim, net = build_spf(regular_mesh(4, 4, 6), config)
        for node in net.iter_nodes():
            proto = node.protocol
            for dest, backup in proto.backups.items():
                assert backup != node.next_hop(dest)
                assert backup in node.neighbors()

    def test_lfa_reduces_stale_route_drops_at_degree6(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.scenario import run_scenario

        cfg = ExperimentConfig.quick().with_(post_fail_window=40.0)
        slow = run_scenario("spf-slow", 6, 1, cfg)
        lfa = run_scenario("spf-lfa", 6, 1, cfg)
        slow_stale = slow.drops_link_down + slow.drops_no_route
        lfa_stale = lfa.drops_link_down + lfa.drops_no_route
        assert lfa_stale < slow_stale
        assert lfa_stale <= 2  # only the in-flight packet dies
