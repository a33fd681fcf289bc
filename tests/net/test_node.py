"""Unit tests for node forwarding, TTL handling and drop accounting."""

from __future__ import annotations

import pytest

from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.tracing import DropCause, PacketRecord, RouteChangeRecord
from repro.topology import generators

from ..conftest import recorded, recording_network


def make_line(n=3, record_paths=False):
    sim = Simulator()
    net = recording_network(sim, generators.line(n), record_paths=record_paths)
    return sim, net, recorded(net)


def install_line_routes(net, n=3):
    """dest n-1 reachable from every node by forwarding right."""
    for i in range(n - 1):
        net.node(i).set_next_hop(n - 1, i + 1)


class TestForwarding:
    def test_end_to_end_delivery(self):
        sim, net, trace = make_line()
        install_line_routes(net)
        net.node(0).originate(Packet(src=0, dst=2, ttl=10))
        sim.run()
        assert net.node(2).delivered == 1
        kinds = [r.kind for r in trace["packet"]]
        assert kinds == ["send", "deliver"]

    def test_ttl_decrement_per_forwarding_hop(self):
        sim, net, trace = make_line(4)
        install_line_routes(net, 4)
        p = Packet(src=0, dst=3, ttl=10)
        net.node(0).originate(p)
        sim.run()
        # Two intermediate routers decrement; origin and delivery do not.
        assert p.ttl == 8

    def test_ttl_expiry_drops(self):
        sim, net, trace = make_line(4)
        install_line_routes(net, 4)
        net.node(0).originate(Packet(src=0, dst=3, ttl=1))
        sim.run()
        assert net.total_drops(DropCause.TTL_EXPIRED) == 1
        assert net.node(3).delivered == 0

    def test_no_route_drop(self):
        sim, net, trace = make_line()
        # No routes installed at node 1.
        net.node(0).set_next_hop(2, 1)
        net.node(0).originate(Packet(src=0, dst=2))
        sim.run()
        assert net.node(1).drops[DropCause.NO_ROUTE] == 1

    def test_originate_to_self_delivers_locally(self):
        sim, net, trace = make_line()
        net.node(0).originate(Packet(src=0, dst=0))
        assert net.node(0).delivered == 1

    def test_originate_requires_data_packet(self):
        sim, net, trace = make_line()
        with pytest.raises(ValueError):
            net.node(0).originate(Packet(src=0, dst=1, kind="control", ttl=1))

    def test_hop_recording(self):
        sim, net, trace = make_line(4, record_paths=True)
        install_line_routes(net, 4)
        p = Packet(src=0, dst=3)
        net.node(0).originate(p)
        sim.run()
        assert p.hops == [0, 1, 2, 3]

    def test_forwarded_counter(self):
        sim, net, trace = make_line(4)
        install_line_routes(net, 4)
        net.node(0).originate(Packet(src=0, dst=3))
        sim.run()
        # Relayed by nodes 1 and 2; the origin's send and the sink's
        # delivery are not forwards.
        assert net.bus.counters.forwards == 2


class TestFib:
    def test_set_next_hop_publishes_change(self):
        sim, net, trace = make_line()
        net.node(0).set_next_hop(2, 1)
        changes = trace["route"]
        assert len(changes) == 1
        assert changes[0] == RouteChangeRecord(
            time=0.0, node=0, dest=2, old_next_hop=None, new_next_hop=1
        )

    def test_idempotent_set_publishes_nothing(self):
        sim, net, trace = make_line()
        net.node(0).set_next_hop(2, 1)
        net.node(0).set_next_hop(2, 1)
        assert len(trace["route"]) == 1

    def test_withdraw_route(self):
        sim, net, trace = make_line()
        net.node(0).set_next_hop(2, 1)
        net.node(0).set_next_hop(2, None)
        assert net.node(0).next_hop(2) is None
        assert trace["route"][-1].new_next_hop is None

    def test_next_hop_must_be_neighbor(self):
        sim, net, trace = make_line()
        with pytest.raises(ValueError):
            net.node(0).set_next_hop(2, 2)  # 2 is not adjacent to 0


class TestControlPlaneWiring:
    def test_control_message_dispatched_to_protocol(self):
        sim, net, trace = make_line()
        got = []

        class FakeProto:
            def handle_message(self, payload, from_node):
                got.append((payload, from_node))

            def start(self):
                pass

        net.node(1).attach_protocol(FakeProto())
        net.node(0).send_control(1, payload="hello", size_bytes=64, protocol="x")
        sim.run()
        assert got == [("hello", 0)]

    def test_send_control_requires_neighbor(self):
        sim, net, trace = make_line()
        with pytest.raises(ValueError):
            net.node(0).send_control(2, payload=None, size_bytes=10, protocol="x")

    def test_link_down_notifies_protocol(self):
        sim, net, trace = make_line()
        got = []

        class FakeProto:
            def handle_link_down(self, neighbor):
                got.append(neighbor)

        net.node(0).attach_protocol(FakeProto())
        net.node(0).on_link_down(1)
        assert got == [1]

    def test_double_protocol_attach_rejected(self):
        sim, net, trace = make_line()
        net.node(0).attach_protocol(object())
        with pytest.raises(ValueError):
            net.node(0).attach_protocol(object())


class TestApps:
    def test_apps_receive_local_deliveries(self):
        sim, net, trace = make_line()
        install_line_routes(net)
        got = []

        class App:
            def on_packet(self, packet, node):
                got.append((packet.packet_id, node.id))

        net.node(2).attach_app(App())
        net.node(0).originate(Packet(src=0, dst=2))
        sim.run()
        assert len(got) == 1 and got[0][1] == 2

    def test_control_drops_not_counted_as_data(self):
        sim, net, trace = make_line()
        net.link(0, 1).fail()
        net.node(0).send_control(1, payload=None, size_bytes=10, protocol="x")
        sim.run()
        assert net.node(0).drops[DropCause.LINK_DOWN] == 0
