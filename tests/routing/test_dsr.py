"""Unit tests for DSR: source routing, route cache, error poisoning."""

from __future__ import annotations

from repro.net.dynamics import LinkScheduler
from repro.net.packet import Packet
from repro.routing.dsr import DsrConfig, DsrProtocol, RouteError
from repro.sim.tracing import DropCause
from repro.topology import generators

from ..conftest import build_network


def _send_data(net, src: int, dst: int) -> Packet:
    packet = Packet(src=src, dst=dst, flow_id=1)
    net.node(src).originate(packet)
    return packet


class TestSourceRouting:
    def test_discovery_stamps_route_and_delivers(self):
        sim, net, _ = build_network(generators.line(4), "dsr")
        net.start_protocols()
        packet = _send_data(net, 0, 3)
        sim.run(until=1.0)
        assert net.total_delivered() == 1
        assert packet.route == (0, 1, 2, 3)

    def test_fib_stays_empty_everywhere(self):
        sim, net, _ = build_network(generators.line(4), "dsr")
        net.start_protocols()
        _send_data(net, 0, 3)
        sim.run(until=1.0)
        for node in net.iter_nodes():
            for dest in net.topology.nodes:
                if dest != node.id:
                    assert node.next_hop(dest) is None

    def test_cached_route_skips_rediscovery(self):
        sim, net, _ = build_network(generators.line(3), "dsr")
        net.start_protocols()
        _send_data(net, 0, 2)
        sim.run(until=1.0)
        proto = net.node(0).protocol
        assert proto.discoveries == 1
        _send_data(net, 0, 2)
        sim.run(until=2.0)
        assert proto.discoveries == 1  # cache hit, no second flood
        assert net.total_delivered() == 2

    def test_prefixes_of_discovered_routes_are_cached(self):
        sim, net, _ = build_network(generators.line(4), "dsr")
        net.start_protocols()
        _send_data(net, 0, 3)
        sim.run(until=1.0)
        proto = net.node(0).protocol
        # The path to 3 teaches paths to 1 and 2 for free.
        assert proto.route_path(1) == (0, 1)
        assert proto.route_path(2) == (0, 1, 2)

    def test_best_path_prefers_shortest(self):
        sim, net, _ = build_network(generators.ring(4), "dsr")
        net.start_protocols()
        proto = net.node(0).protocol
        proto._cache_path((0, 3, 2, 1, 2))
        proto._cache_path((0, 1, 2))
        proto._cache_path((0, 3, 2))
        # Shortest wins; the deterministic tie-break picks the smaller tuple.
        assert proto.route_path(2) == (0, 1, 2)


class TestDiscoveryRetry:
    def test_retry_releases_to_a_path_learned_meanwhile(self):
        """A retry first checks the cache: a path learned some other way
        while the discovery waited ends it without another flood."""
        config = DsrConfig(discovery_timeout=0.5)
        sim, net, rng = build_network(generators.line(3), "none")
        net.attach_protocols(lambda node: DsrProtocol(node, rng, config))
        net.start_protocols()
        injector = LinkScheduler(sim, net, detection_delay=0.01)
        injector.fail_link(1, 2, at=0.1)
        sim.run(until=0.2)  # node 2 is unreachable: no reply will come
        packet = _send_data(net, 0, 2)
        proto = net.node(0).protocol
        sim.run(until=0.3)
        sent = proto.messages_sent
        proto._cache_path((0, 1, 2))
        sim.run(until=5.0)
        assert proto.messages_sent == sent  # released, not re-requested
        assert proto.discoveries == 1 and proto.discovery_failures == 0
        assert proto.pending_data_packets() == 0
        assert packet.route == (0, 1, 2)


class TestRouteErrors:
    def test_broken_relay_sends_error_back_and_origin_purges(self):
        sim, net, _ = build_network(generators.line(4), "dsr")
        net.start_protocols()
        _send_data(net, 0, 3)
        sim.run(until=1.0)
        origin = net.node(0).protocol
        assert origin.route_path(3) == (0, 1, 2, 3)
        injector = LinkScheduler(sim, net, detection_delay=0.01)
        injector.fail_link(2, 3, at=2.0)
        sim.run(until=2.5)
        # Node 2 poisoned its own cache on link-layer feedback; the origin
        # still holds the stale path until it tries to use it.
        _send_data(net, 0, 3)
        sim.run(until=3.5)
        assert origin.route_path(3) is None
        assert net.total_drops(DropCause.NO_ROUTE) >= 1

    def test_error_poisons_both_directions_of_the_link(self):
        sim, net, _ = build_network(generators.line(4), "dsr")
        net.start_protocols()
        proto = net.node(0).protocol
        proto._cache_path((0, 1, 2, 3))
        proto._cache_path((0, 1))
        proto.handle_message(
            RouteError(broken=(2, 1), route=(0, 1)), from_node=1
        )
        # (1, 2) and (2, 1) are the same broken link; the long path dies,
        # the short one survives.
        assert proto.route_path(3) is None
        assert proto.route_path(1) == (0, 1)
        assert proto.cache_poisonings == 1

    def test_link_down_purges_local_cache(self):
        sim, net, _ = build_network(generators.line(3), "dsr")
        net.start_protocols()
        _send_data(net, 0, 2)
        sim.run(until=1.0)
        proto = net.node(0).protocol
        assert proto.route_path(2) is not None
        injector = LinkScheduler(sim, net, detection_delay=0.01)
        injector.fail_link(0, 1, at=2.0)
        sim.run(until=3.0)
        assert proto.route_path(2) is None


class TestRecovery:
    def test_rediscovery_after_failure_finds_detour(self):
        sim, net, _ = build_network(generators.ring(4), "dsr")
        net.start_protocols()
        _send_data(net, 0, 2)
        sim.run(until=1.0)
        injector = LinkScheduler(sim, net, detection_delay=0.01)
        # Break whichever two-hop path discovery found; the other survives.
        first = net.node(0).protocol.route_path(2)
        injector.fail_link(first[0], first[1], at=2.0)
        sim.run(until=3.0)
        _send_data(net, 0, 2)
        sim.run(until=6.0)
        path = net.node(0).protocol.route_path(2)
        assert path is not None and first[1] not in path
        assert net.total_delivered() == 2

    def test_promiscuous_relay_gleans_paths(self):
        config = DsrConfig(promiscuous=True)
        sim, net, rng = build_network(generators.line(4), "none")
        net.attach_protocols(lambda node: DsrProtocol(node, rng, config))
        net.start_protocols()
        _send_data(net, 0, 3)
        sim.run(until=1.0)
        relay = net.node(1).protocol
        # The relay learned the downstream suffix and upstream reverse path
        # from the data packet it forwarded.
        assert relay.route_path(3) == (1, 2, 3)
        assert relay.route_path(0) == (1, 0)

    def test_non_promiscuous_relay_still_caches_from_control(self):
        sim, net, _ = build_network(generators.line(4), "dsr")
        net.start_protocols()
        _send_data(net, 0, 3)
        sim.run(until=1.0)
        # RREQ record gave the relay a reverse path to the originator.
        assert net.node(2).protocol.route_path(0) == (2, 1, 0)


class TestInspectionHooks:
    def test_source_route_loops_flags_duplicate_nodes(self):
        sim, net, _ = build_network(generators.line(3), "dsr")
        net.start_protocols()
        proto = net.node(0).protocol
        assert proto.source_route_loops() == []
        proto.cache.setdefault(2, set()).add((0, 1, 0, 1, 2))
        assert proto.source_route_loops() == [(0, 1, 0, 1, 2)]

    def test_route_metric_is_path_length(self):
        sim, net, _ = build_network(generators.line(4), "dsr")
        net.start_protocols()
        _send_data(net, 0, 3)
        sim.run(until=1.0)
        proto = net.node(0).protocol
        assert proto.route_metric(3) == 3
        assert proto.route_metric(0) == 0
        assert proto.route_metric(99) is None
