"""The cheaper control-plane paths compute what the per-router code did.

Each class compares the live protocol against a test-local oracle that is
the straightforward construction it replaced:

* DBF selects over a cached, sorted ``(neighbor, link)`` tuple; the oracle
  rebuilds ``{neighbor: cost}`` over the up links and sorts it per call.
  Link state is read live, so a link that failed but whose failure is not
  yet detected is skipped by both.
* BGP's warm start shares one path table per network; the oracle builds
  fresh ``PathAttr`` objects per (router, neighbor, destination).
"""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net.link import Link
from repro.routing import bgp
from repro.routing.bgp import BgpConfig
from repro.routing.rib import PathAttr, best_vector_choice
from repro.topology import generators
from repro.topology.graph import (
    LinkSpec,
    Topology,
    all_shortest_path_trees,
    destination_path_trees,
)
from repro.topology.mesh import regular_mesh

from ..conftest import build_network

# --------------------------------------------------------------------- DBF

CENTER = 50
DESTS = (60, 61, 62)


def oracle_link_costs(node) -> dict[int, int]:
    costs = {}
    for nbr in node.neighbors():
        link = node.link_to(nbr)
        if not link.up:
            continue
        costs[nbr] = link.spec.cost
    return costs


def oracle_choice(cache, dest, link_costs, infinity):
    best_metric, best_nbr = infinity, None
    for nbr in sorted(link_costs):
        metric = cache.advertised(nbr, dest) + link_costs[nbr]
        if metric < best_metric:
            best_metric, best_nbr = metric, nbr
    if best_metric >= infinity:
        return infinity, None
    return best_metric, best_nbr


def assert_dbf_matches_oracle(proto) -> None:
    node = proto.node
    infinity = proto.config.infinity
    for dest in DESTS:
        expected = oracle_choice(proto.cache, dest, oracle_link_costs(node), infinity)
        proto._reselect(dest)
        assert best_vector_choice(proto.cache, dest, proto._links, infinity) == expected
        metric, nbr = expected
        assert proto.route_metric(dest) == (None if nbr is None else metric)
        assert node.next_hop(dest) == nbr


@st.composite
def dbf_cases(draw):
    nbrs = draw(st.lists(st.integers(20, 40), min_size=1, max_size=5, unique=True))
    costs = {nbr: draw(st.integers(1, 6)) for nbr in nbrs}
    op = st.one_of(
        st.tuples(
            st.just("learn"), st.sampled_from(nbrs), st.sampled_from(DESTS),
            st.integers(0, 20),
        ),
        st.tuples(st.sampled_from(["fail", "detect", "restore"]), st.sampled_from(nbrs)),
    )
    return costs, draw(st.lists(op, max_size=30))


class TestDbfSelection:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=dbf_cases())
    def test_equals_rebuilt_cost_dict(self, case):
        costs, ops = case
        topo = Topology()
        for nbr, cost in costs.items():  # unsorted ids, costs other than 1
            topo.connect(CENTER, nbr, cost=cost)
        sim, net, _ = build_network(topo, "dbf")
        proto = net.node(CENTER).protocol
        proto.start()
        for kind, nbr, *rest in ops:
            link = net.node(CENTER).link_to(nbr)
            if kind == "learn":
                proto.cache.learn(nbr, *rest)  # also onto undetected-down links
            elif kind == "fail":
                link.fail()  # down, but handle_link_down not yet called
            elif kind == "detect" and not link.up:
                proto.handle_link_down(nbr)  # forgets the neighbor's vector
            elif kind == "restore":
                link.restore()
            assert_dbf_matches_oracle(proto)

    def test_undetected_failure_is_skipped(self):
        topo = Topology()
        topo.connect(CENTER, 20, cost=1)
        topo.connect(CENTER, 30, cost=3)
        sim, net, _ = build_network(topo, "dbf")
        proto = net.node(CENTER).protocol
        proto.start()
        proto.cache.learn(20, 60, 1)
        proto.cache.learn(30, 60, 1)
        proto._reselect(60)
        assert net.node(CENTER).next_hop(60) == 20
        net.node(CENTER).link_to(20).fail()
        proto._reselect(60)
        assert (proto.route_metric(60), net.node(CENTER).next_hop(60)) == (4, 30)
        net.node(CENTER).link_to(20).restore()
        assert_dbf_matches_oracle(proto)
        assert net.node(CENTER).next_hop(60) == 20

    def test_added_link_rebuilds_the_sorted_tuple(self):
        topo = Topology()
        topo.connect(CENTER, 30, cost=1)
        sim, net, _ = build_network(topo, "dbf")
        node = net.node(CENTER)
        proto = node.protocol
        proto.start()
        proto.cache.learn(30, 60, 2)
        assert_dbf_matches_oracle(proto)
        # A lower id, added after the tuple was built, must win the tie.
        node.add_link(1, Link(sim, LinkSpec(CENTER, 1), deliver=None, dropper=None))
        proto.cache.learn(1, 60, 2)
        assert_dbf_matches_oracle(proto)
        assert [nbr for nbr, _ in proto._links] == [1, 30]
        assert node.next_hop(60) == 1


# --------------------------------------------------------------------- BGP


def oracle_warm_start(topology, me, up_neighbors, ssld, dests=None):
    """The per-router warm start: fresh path objects for every entry."""
    if dests is None:
        trees = all_shortest_path_trees(topology)

        def paths_from(node):
            return trees[node]

    else:
        rooted = destination_path_trees(topology, dests)

        def paths_from(node):
            return {d: tree[node] for d, tree in rooted.items() if node in tree}

    best, fib = {}, {}
    for dest, path in paths_from(me).items():
        if dest != me:
            best[dest] = PathAttr.of(path[1:])
            fib[dest] = path[1]
    rib_in, rib_out = {}, {}
    for nbr in up_neighbors:
        rib_in[nbr] = {
            d: PathAttr.of(p) for d, p in paths_from(nbr).items() if me not in p
        }
        out = {me: PathAttr.of((me,))}
        for dest, path in best.items():
            if ssld and path.contains(nbr):
                continue
            out[dest] = path.prepend(me)
        rib_out[nbr] = out
    return best, rib_in, rib_out, fib


TOPOLOGIES = [
    *(pytest.param(lambda d=d: regular_mesh(5, 5, d), id=f"mesh-d{d}") for d in (3, 4, 5, 6)),
    pytest.param(lambda: generators.scale_free(40, m=2, seed=3), id="scale-free"),
]


def warm_network(topo, ssld, dests=None, failed=None):
    config = BgpConfig(mrai_base=0.2, mrai_jitter=0.0, sender_side_loop_detection=ssld)
    sim, net, _ = build_network(topo, "bgp", bgp_config=config)
    if failed is not None:
        net.link(*failed).fail()  # warm start sees only up neighbors
    for node in net.iter_nodes():
        if dests is None:
            node.protocol.warm_start(topo)
        else:
            node.protocol.warm_start(topo, dests=dests)
    return net


class TestBgpWarmStart:
    @pytest.mark.parametrize("ssld", [False, True], ids=["rx-loop", "ssld"])
    @pytest.mark.parametrize("restricted", [False, True], ids=["all", "dests"])
    @pytest.mark.parametrize("make_topo", TOPOLOGIES)
    def test_equals_per_router_construction(self, make_topo, restricted, ssld):
        topo = make_topo()
        dests = sorted(topo.nodes)[::7] if restricted else None
        failed = sorted(topo.links)[3]
        net = warm_network(topo, ssld, dests, failed)
        for node in net.iter_nodes():
            proto = node.protocol
            best, rib_in, rib_out, fib = oracle_warm_start(
                topo, node.id, node.up_neighbors(), ssld, dests
            )
            # Equal by value, in the same order (FIB install order is traced).
            assert list(proto.best.items()) == list(best.items())
            assert list(node.fib.items()) == list(fib.items())
            assert proto.rib_in == rib_in
            assert proto.rib_out == rib_out  # looked up only, never iterated

    @pytest.mark.parametrize("ssld", [False, True], ids=["rx-loop", "ssld"])
    def test_neighbors_share_one_object(self, ssld):
        topo = regular_mesh(5, 5, 4)
        net = warm_network(topo, ssld)
        shared = 0
        for a, b in sorted(topo.links):
            pa, pb = net.node(a).protocol, net.node(b).protocol
            for dest, attr in pa.rib_in[b].items():
                # What b has advertised to a is the object a holds for b.
                if dest in pb.rib_out[a]:
                    assert attr is pb.rib_out[a][dest]
                    shared += 1
                # Every other neighbor of b holds that same object too.
                for c in net.node(b).up_neighbors():
                    if dest in net.node(c).protocol.rib_in[b]:
                        assert net.node(c).protocol.rib_in[b][dest] is attr
            for dest, attr in pa.best.items():
                hop = attr.first_hop
                assert attr is net.node(hop).protocol.rib_out[a].get(dest, attr)
        assert shared > 0

    def test_table_is_freed_with_the_network(self):
        gc.collect()
        before = len(bgp._WARM_PATHS)
        net = warm_network(regular_mesh(4, 4, 4), ssld=False)
        assert len(bgp._WARM_PATHS) == before + 1
        ref = weakref.ref(net)
        del net
        gc.collect()
        assert ref() is None
        assert len(bgp._WARM_PATHS) == before
