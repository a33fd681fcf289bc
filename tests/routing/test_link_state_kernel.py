"""SPF and OLSR on the shared shortest-path kernel.

Three things changed when the link-state protocols stopped building networkx
graphs and rebuilding their view per message: SPF's LFA backups come from
the kernel's costs, SPF skips Dijkstra when its two-way view did not change,
and OLSR keeps its FIB and MPRs when a HELLO or TC changed nothing.  Each is
checked here against a computation that shares no code with it.
"""

from __future__ import annotations

import random

import networkx as nx

from repro.experiments import ChurnConfig, ExperimentConfig, run_churn_scenario
from repro.routing import olsr
from repro.routing.olsr import OlsrProtocol
from repro.routing.spf import Lsa, SpfConfig, SpfProtocol
from repro.topology import generators
from repro.topology.graph import Topology, shortest_path_tree

from ..conftest import build_network
from .test_spf_lfa import build_spf, diamond


def test_lfa_backups_on_a_weighted_graph_match_networkx_distances():
    rng = random.Random(5)
    topo = Topology("weighted")
    ring = [(i, (i + 1) % 8) for i in range(8)]
    for a, b in ring + [(0, 3), (1, 5), (2, 6), (4, 7)]:
        topo.connect(a, b, cost=rng.randint(1, 5))
    dist = dict(nx.all_pairs_dijkstra_path_length(topo.to_networkx(), weight="weight"))

    _, net = build_spf(topo, SpfConfig(lfa=True))
    protected = 0
    for node in net.iter_nodes():
        s = node.id
        expected = {}
        for d in topo.nodes - {s}:
            alternates = [
                (dist[n][d], n)
                for n in topo.neighbors(s)
                if n != node.next_hop(d) and dist[n][d] < dist[n][s] + dist[s][d]
            ]
            if alternates:
                expected[d] = min(alternates)[1]
        assert node.protocol.backups == expected, f"node {s}"
        assert node.protocol._metrics == {d: dist[s][d] for d in topo.nodes - {s}}
        protected += len(expected)
    assert protected > 0


def test_spf_view_is_two_way_checked_and_the_later_lsa_wins_a_cost_dispute():
    _, net = build_spf(diamond(), SpfConfig())
    proto = net.node(0).protocol
    # The warm start entered origins 0, 1, 2, 3 in that order.  Node 1's LSA
    # is read first here, but node 1 entered the database after node 0, so
    # its cost wins the dispute.
    for lsa in (
        Lsa(1, 2, ((0, 3), (3, 1))),  # 0-1: 3 from node 1, 7 from node 0
        Lsa(0, 2, ((1, 7), (2, 1))),
        Lsa(2, 2, ((0, 1),)),
        Lsa(3, 2, ()),  # does not list 1 back: 1-3 fails the two-way check
    ):
        proto.handle_message(lsa, from_node=2)
    # What the database meant when it was loaded into an nx.Graph, whose
    # add_edge overwrites the weight of an edge it already holds.
    graph = nx.Graph()
    for lsa in proto.database.values():
        for nbr, cost in lsa.adjacencies:
            if lsa.origin in dict(proto.database[nbr].adjacencies):
                graph.add_edge(lsa.origin, nbr, weight=cost)
    adj = proto._view
    assert adj == {n: {m: graph.edges[n, m]["weight"] for m in graph[n]} for n in graph}
    assert adj[0][1] == adj[1][0] == 3 and 3 not in adj
    assert proto.route_metric(1) == 3 and proto.route_metric(3) is None


def test_olsr_skipped_recomputes_leave_the_fib_a_fresh_run_would_build(monkeypatch):
    """After every ``_recompute``, skipped or not, the FIB and metrics equal a
    from-scratch kernel run over the protocol's current HELLO/TC state; after
    every HELLO the MPRs equal a fresh selection over the neighbor table."""
    recompute = OlsrProtocol._recompute
    handle_hello = OlsrProtocol._handle_hello
    hellos = []
    tally = {"calls": 0, "skipped": 0}

    def checked(self: OlsrProtocol) -> None:
        before = self.recomputes_skipped
        recompute(self)
        tally["calls"] += 1
        tally["skipped"] += self.recomputes_skipped - before

        me = self.node.id
        adj: dict[int, dict[int, int]] = {me: {}}
        for a, b in self._edges():
            adj.setdefault(a, {})[b] = 1
            adj.setdefault(b, {})[a] = 1
        paths, costs = shortest_path_tree(adj, me)
        usable = {
            dest: path[1]
            for dest, path in paths.items()
            if dest != me and self._nbr.get(path[1]) == "sym"
        }
        assert self.node.fib == usable, f"node {me} at t={self.sim.now}"
        assert self._metrics == {dest: costs[dest] for dest in usable}

    def checked_hello(self: OlsrProtocol, hello, from_node: int) -> None:
        handle_hello(self, hello, from_node)
        if self.node.links[from_node].up:  # a HELLO over a dead link is ignored
            sym = [n for n, status in self._nbr.items() if status == "sym"]
            assert self.mprs == olsr.select_mprs(self.node.id, sym, self._two_hop)
            hellos.append(from_node)

    monkeypatch.setattr(OlsrProtocol, "_recompute", checked)
    monkeypatch.setattr(OlsrProtocol, "_handle_hello", checked_hello)
    config = ExperimentConfig.quick().with_(
        post_fail_window=20.0,
        churn=ChurnConfig(model="waypoint", n_nodes=12, radio_range=400.0),
    )
    result = run_churn_scenario("olsr", 7, config)
    assert result.events, "the seed must actually churn links"
    assert tally["skipped"] > 0
    assert tally["calls"] > tally["skipped"]
    assert hellos


def test_spf_skips_most_recomputes_under_churn(monkeypatch):
    """Flooding delivers every LSA once per router, but most of them leave
    the two-way view as it was: no Dijkstra then."""
    counts: list[tuple[int, int]] = []
    close = SpfProtocol.close

    def counting(self: SpfProtocol) -> None:
        # Read each router as its run ends: closing drops its state.
        counts.append((self.recomputations, self.recomputes_skipped))
        close(self)

    monkeypatch.setattr(SpfProtocol, "close", counting)
    config = ExperimentConfig.quick().with_(
        post_fail_window=20.0,
        churn=ChurnConfig(model="waypoint", n_nodes=16, radio_range=400.0),
    )
    result = run_churn_scenario("spf", 7, config)
    assert result.events
    assert len(counts) == config.churn.n_nodes
    runs = sum(ran for ran, _ in counts)
    skipped = sum(skip for _, skip in counts)
    assert skipped / runs >= 0.4, (skipped, runs)


def test_olsr_warm_start_reconstructs_mpr_choices_once_per_topology(monkeypatch):
    calls: list[int] = []
    select = olsr.select_mprs
    monkeypatch.setattr(
        olsr, "select_mprs", lambda me, *rest: calls.append(me) or select(me, *rest)
    )
    topo = generators.ring(9)
    _, net, _ = build_network(topo, "olsr")
    for node in net.iter_nodes():
        node.protocol.warm_start(topo)
    # One network-wide reconstruction shared by all nine routers (none at all
    # if an earlier test warmed the same ring), not one per router.
    assert len(calls) <= 9
    for node in net.iter_nodes():
        proto, me = node.protocol, node.id
        nbrs = {(me - 1) % 9, (me + 1) % 9}
        assert proto.mprs == nbrs  # each is the sole provider of one 2-hop node
        assert proto.mpr_selectors == nbrs
        assert set(proto._topo) == set(range(9))
