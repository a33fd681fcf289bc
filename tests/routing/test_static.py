"""Tests for the static-routing baseline."""

from __future__ import annotations

import pytest

from repro.net.dynamics import LinkScheduler
from repro.topology import generators

from ..conftest import build_network, metrics_match_shortest_paths, recorded


class TestStatic:
    def test_installs_shortest_paths(self):
        topo = generators.ring(5)
        sim, net, _ = build_network(topo, "static")
        net.start_protocols()
        assert metrics_match_shortest_paths(net)

    def test_never_adapts_to_failure(self):
        topo = generators.ring(5)
        sim, net, _ = build_network(topo, "static")
        net.start_protocols()
        before = net.node(0).next_hop(2)
        injector = LinkScheduler(sim, net, detection_delay=0.05)
        injector.fail_link(0, 1, at=5.0)
        sim.run(until=20.0)
        assert net.node(0).next_hop(2) == before

    def test_exchanges_no_messages(self):
        topo = generators.line(3)
        sim, net, _ = build_network(topo, "static")
        net.start_protocols()
        sim.run(until=60.0)
        assert recorded(net)["message"] == []
        with pytest.raises(TypeError):
            net.node(0).protocol.handle_message(None, 1)
