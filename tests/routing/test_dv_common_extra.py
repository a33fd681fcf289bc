"""Edge-path tests for the shared distance-vector machinery."""

from __future__ import annotations

import pytest

from repro.net.dynamics import LinkScheduler
from repro.routing.dv_common import DistanceVectorConfig
from repro.routing.messages import DistanceVectorUpdate
from repro.routing.rip import RipProtocol
from repro.sim.rng import RngStreams
from repro.topology import generators

from ..conftest import build_network, metrics_match_shortest_paths, recorded


class TestLinkUpHandling:
    @pytest.mark.parametrize("protocol", ["rip", "dbf"])
    def test_restored_link_reintegrates(self, protocol):
        topo = generators.ring(4)
        sim, net, _ = build_network(topo, protocol)
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        injector = LinkScheduler(sim, net, detection_delay=0.05)
        injector.fail_link(0, 1, at=10.0)
        injector.restore_link(0, 1, at=20.0)
        sim.run(until=120.0)  # several periodic cycles after restoration
        assert metrics_match_shortest_paths(net)

    def test_link_up_sends_immediate_introduction(self):
        topo = generators.line(2)
        sim, net, _ = build_network(topo, "rip")
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        injector = LinkScheduler(sim, net, detection_delay=0.05)
        injector.fail_link(0, 1, at=5.0)
        injector.restore_link(0, 1, at=10.0)
        before = len([m for m in recorded(net)["message"] if 10.0 <= m.time < 10.2])
        sim.run(until=10.2)
        after = [m for m in recorded(net)["message"] if 10.0 <= m.time < 10.2]
        # Both endpoints advertise their tables right at re-detection, long
        # before the next periodic cycle.
        assert len(after) >= 2


class TestStaleMessageHandling:
    def test_update_from_downed_adjacency_ignored(self):
        """A message already delivered when the link is known dead must not
        resurrect routes through it."""
        topo = generators.line(2)
        sim, net, _ = build_network(topo, "none")
        proto = RipProtocol(net.node(0), RngStreams(1))
        proto.start()
        net.link(0, 1).fail()
        proto.handle_message(DistanceVectorUpdate(routes=((9, 1),)), from_node=1)
        assert proto.route_metric(9) is None

    def test_wrong_payload_type_rejected(self):
        topo = generators.line(2)
        sim, net, _ = build_network(topo, "none")
        proto = RipProtocol(net.node(0), RngStreams(1))
        proto.start()
        with pytest.raises(TypeError):
            proto.handle_message({"not": "a DV update"}, from_node=1)

    def test_self_destination_in_update_ignored(self):
        topo = generators.line(2)
        sim, net, _ = build_network(topo, "none")
        proto = RipProtocol(net.node(0), RngStreams(1))
        proto.start()
        proto.handle_message(DistanceVectorUpdate(routes=((0, 3),)), from_node=1)
        assert proto.route_metric(0) == 0  # still ourselves, untouched


class TestAdvertisementContent:
    def test_periodic_update_carries_whole_table(self):
        topo = generators.line(3)
        sim, net, _ = build_network(topo, "rip")
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        proto = net.node(1).protocol
        view = dict(proto._full_table_view(0))
        # Table covers every destination (poison-reversed where needed).
        assert set(view) == {0, 1, 2}
        assert view[1] == 0  # self route
        assert view[0] == proto.config.infinity  # poison reverse toward 0
        assert view[2] == 1

    def test_garbage_collected_dest_disappears_from_advertisements(self):
        config = DistanceVectorConfig(route_timeout=40.0, garbage_collect=5.0)
        topo = generators.line(2)
        sim, net, _ = build_network(topo, "none")
        proto = RipProtocol(net.node(0), RngStreams(1), config)
        proto.start()
        proto.handle_message(DistanceVectorUpdate(routes=((9, 1),)), from_node=1)
        proto.handle_message(
            DistanceVectorUpdate(routes=((9, config.infinity),)), from_node=1
        )
        sim.run(until=1.0)
        assert 9 in dict(proto._full_table_view(1))  # poisoned, still advertised
        sim.run(until=10.0)
        assert 9 not in dict(proto._full_table_view(1))  # collected
