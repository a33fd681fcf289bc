"""Property-based invariant tests for the routing protocols.

Hypothesis drives random message sequences / topologies / failures and
checks the safety properties the experiment harness relies on:

* a BGP speaker never installs a best path containing itself, and its FIB
  next hop is always a live neighbor;
* DBF's table always equals one Bellman-Ford step over its caches;
* after any single link failure on any small connected topology, the
  event-driven protocols (DBF/BGP/SPF) reconverge to correct shortest paths.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net.dynamics import LinkScheduler
from repro.routing.bgp import BgpConfig, BgpProtocol
from repro.routing.dbf import DbfProtocol
from repro.routing.messages import (
    DistanceVectorUpdate,
    PathVectorUpdate,
    PathVectorWithdrawal,
)
from repro.routing.rib import PathAttr, best_vector_choice
from repro.sim.rng import RngStreams
from repro.topology import generators
from repro.topology.graph import Topology

from ..conftest import build_network, metrics_match_shortest_paths

FAST_BGP = BgpConfig(mrai_base=0.2, mrai_jitter=0.0)

# Strategy: a random BGP event from one of two neighbors (1 or 2) about
# destinations 5-8, with loop-free-or-not paths over nodes 3-9.
_paths = st.lists(
    st.integers(min_value=1, max_value=9), min_size=1, max_size=4, unique=True
)


@st.composite
def bgp_events(draw):
    neighbor = draw(st.sampled_from([1, 2]))
    dest = draw(st.integers(min_value=5, max_value=8))
    if draw(st.booleans()):
        middle = draw(_paths)
        nodes = [neighbor] + [n for n in middle if n not in (neighbor, dest, 0)] + [dest]
        # De-duplicate while keeping order.
        seen: list[int] = []
        for n in nodes:
            if n not in seen:
                seen.append(n)
        return ("announce", neighbor, PathVectorUpdate(path=PathAttr.of(tuple(seen)), dests=(dest,)))
    return ("withdraw", neighbor, PathVectorWithdrawal(dests=(dest,)))


class TestBgpInvariants:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(events=st.lists(bgp_events(), max_size=25))
    def test_best_path_never_contains_self_and_next_hop_is_neighbor(self, events):
        sim, net, _ = build_network(generators.star(2), "none")
        proto = BgpProtocol(net.node(0), RngStreams(1), net, FAST_BGP)
        proto.start()
        for kind, neighbor, payload in events:
            proto.handle_message(payload, from_node=neighbor)
            for dest, best in proto.best.items():
                assert not best.contains(0)
                assert best.first_hop in (1, 2)
                assert net.node(0).next_hop(dest) == best.first_hop
            # FIB and best agree on unreachability too.
            for dest in (5, 6, 7, 8):
                if dest not in proto.best:
                    assert net.node(0).next_hop(dest) is None

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(events=st.lists(bgp_events(), max_size=25))
    def test_best_is_minimum_over_rib_in(self, events):
        sim, net, _ = build_network(generators.star(2), "none")
        proto = BgpProtocol(net.node(0), RngStreams(1), net, FAST_BGP)
        proto.start()
        for kind, neighbor, payload in events:
            proto.handle_message(payload, from_node=neighbor)
        for dest in (5, 6, 7, 8):
            candidates = [
                proto.rib_in[nbr][dest]
                for nbr in proto.rib_in
                if dest in proto.rib_in[nbr]
            ]
            expected = min(candidates, key=PathAttr.preference_key, default=None)
            assert proto.best.get(dest) == expected


@st.composite
def dv_events(draw):
    neighbor = draw(st.sampled_from([1, 2]))
    dest = draw(st.integers(min_value=5, max_value=8))
    metric = draw(st.integers(min_value=0, max_value=20))
    return (neighbor, dest, metric)


class TestDbfInvariants:
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(events=st.lists(dv_events(), max_size=30))
    def test_table_equals_bellman_ford_over_cache(self, events):
        sim, net, _ = build_network(generators.star(2), "none")
        proto = DbfProtocol(net.node(0), RngStreams(1))
        proto.start()
        for neighbor, dest, metric in events:
            proto.handle_message(
                DistanceVectorUpdate(routes=((dest, metric),)), from_node=neighbor
            )
        for dest in (5, 6, 7, 8):
            metric, nbr = best_vector_choice(
                proto.cache,
                dest,
                sorted(net.node(0).links.items()),
                infinity=proto.config.infinity,
            )
            assert proto.route_metric(dest) == (None if nbr is None else metric)
            assert net.node(0).next_hop(dest) == nbr


def _random_connected_topology(draw) -> Topology:
    n = draw(st.integers(min_value=4, max_value=8))
    topo = generators.ring(n)  # connectivity backbone
    extra = draw(
        st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=6,
        )
    )
    for a, b in extra:
        if a != b and not topo.has_link(a, b):
            topo.connect(a, b)
    return topo


@st.composite
def topologies(draw):
    return _random_connected_topology(draw)


class TestReconvergenceFuzz:
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(topo=topologies(), edge_idx=st.integers(min_value=0, max_value=1000), data=st.integers())
    @pytest.mark.parametrize("protocol", ["dbf", "bgp", "spf", "dual"])
    def test_single_failure_reconverges_to_shortest_paths(self, protocol, topo, edge_idx, data):
        edges = sorted(topo.links)
        a, b = edges[edge_idx % len(edges)]
        survivor = topo.copy("survivor")
        del survivor.links[(a, b)]
        if not survivor.is_connected():
            return  # disconnection handled in dedicated tests

        sim, net, _ = build_network(topo, protocol, bgp_config=FAST_BGP)
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        injector = LinkScheduler(sim, net, detection_delay=0.05)
        injector.fail_link(a, b, at=1.0)
        sim.run(until=60.0)

        import networkx as nx

        lengths = dict(
            nx.all_pairs_dijkstra_path_length(survivor.to_networkx(), weight="weight")
        )
        for node in net.iter_nodes():
            for dest in topo.nodes:
                if dest == node.id:
                    continue
                assert node.protocol.route_metric(dest) == lengths[node.id][dest], (
                    f"{protocol}: node {node.id} metric to {dest} after failing ({a},{b})"
                )
