"""The shortest-path kernel and the adjacency index it runs on.

networkx is the independent oracle here: the kernel and the index replaced
it on every run path, so these tests are where the two are held equal.
"""

from __future__ import annotations

import itertools
import pickle

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.graph import (
    Topology,
    all_shortest_path_costs,
    all_shortest_path_trees,
    destination_path_trees,
    is_connected,
    shortest_path_tree,
    without_links,
)


@st.composite
def weighted_topologies(draw, max_nodes: int = 7):
    """Random weighted graphs, not necessarily connected, isolated nodes kept."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    topo = Topology("drawn")
    for node in range(n):
        topo.add_node(node)
    for a, b in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            topo.connect(a, b, cost=draw(st.integers(min_value=1, max_value=4)))
    return topo


def _simple_paths(adj, src, dst):
    """Every loop-free path src -> dst as (cost, hops, node sequence)."""
    stack = [(0, [src])]
    while stack:
        cost, path = stack.pop()
        if path[-1] == dst:
            yield cost, len(path) - 1, path
            continue
        for nbr, w in adj[path[-1]].items():
            if nbr not in path:
                stack.append((cost + w, path + [nbr]))


class TestKernel:
    @settings(max_examples=150, deadline=None)
    @given(topo=weighted_topologies(), src=st.integers(min_value=0, max_value=6))
    def test_costs_match_networkx_and_path_is_the_tie_break_minimum(self, topo, src):
        src %= topo.n_nodes
        adj = topo.adjacency()
        paths, costs = shortest_path_tree(adj, src)
        expected = nx.single_source_dijkstra_path_length(
            topo.to_networkx(), src, weight="weight"
        )
        assert costs == expected  # same reachable set: unreachable nodes absent
        assert set(paths) == set(costs)
        assert list(paths) == list(costs)  # one emission order for both
        for dest, path in paths.items():
            best = min(_simple_paths(adj, src, dest))
            assert (costs[dest], len(path) - 1, path) == best

    def test_neighbor_listing_order_is_irrelevant(self):
        topo = Topology()
        for a, b in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (1, 4)]:
            topo.connect(a, b)
        adj = topo.adjacency()
        shuffled = {n: dict(reversed(list(nbrs.items()))) for n, nbrs in adj.items()}
        forward, backward = shortest_path_tree(adj, 0), shortest_path_tree(shuffled, 0)
        assert forward == backward
        assert list(forward[0]) == list(backward[0])

    def test_without_links_edits_a_copy(self):
        topo = Topology()
        for a, b in [(0, 1), (1, 2), (0, 2)]:
            topo.connect(a, b)
        adj = topo.adjacency()
        cut = without_links(adj, [(1, 0), (5, 6)])  # either orientation; absent ignored
        assert 1 not in cut[0] and 0 not in cut[1]
        assert adj[0] == {1: 1, 2: 1} and adj[1] == {0: 1, 2: 1}
        assert cut[2] is adj[2]
        assert is_connected(cut)
        assert not is_connected(without_links(cut, [(0, 2)]))
        assert is_connected({})


class TestIndex:
    @staticmethod
    def _triangle() -> Topology:
        topo = Topology("tri")
        topo.connect(0, 1, cost=2)
        topo.connect(1, 2)
        topo.connect(0, 2, cost=5)
        return topo

    def test_adjacency_is_sorted_and_symmetric(self):
        topo = Topology()
        for a, b in [(3, 1), (2, 3), (3, 0), (4, 3)]:
            topo.connect(a, b)
        adj = topo.adjacency()
        assert list(adj) == [0, 1, 2, 3, 4]
        assert list(adj[3]) == [0, 1, 2, 4]
        assert list(topo.neighbors(3)) == [0, 1, 2, 4]
        assert topo.degree(3) == 4 and topo.degree(9) == 0
        assert all(adj[b][a] == cost for a in adj for b, cost in adj[a].items())

    def test_rebuilt_after_add_link_add_node_and_direct_deletion(self):
        topo = self._triangle()
        assert topo.shortest_path(0, 2) == [0, 1, 2]
        topo.connect(2, 3)
        assert list(topo.neighbors(2)) == [0, 1, 3]
        assert topo.shortest_path(0, 3) == [0, 1, 2, 3]
        topo.add_node(7)
        assert 7 in topo.adjacency() and not topo.is_connected()
        del topo.links[(1, 2)]  # tests edit the public dict directly
        assert list(topo.neighbors(2)) == [0, 3]
        assert topo.shortest_path(0, 2) == [0, 2]

    def test_destination_trees_follow_the_index(self):
        topo = self._triangle()
        assert destination_path_trees(topo, [2])[2][0] == [0, 1, 2]
        del topo.links[(1, 2)]
        assert destination_path_trees(topo, [2])[2][0] == [0, 2]

    def test_copy_is_independent(self):
        topo = self._triangle()
        topo.adjacency()
        clone = topo.copy()
        clone.connect(2, 3)
        assert 3 not in topo.adjacency()
        assert list(clone.neighbors(2)) == [0, 1, 3]

    def test_index_is_not_pickled_and_not_compared(self):
        topo, other = self._triangle(), self._triangle()
        bare = len(pickle.dumps(topo))
        topo.adjacency()
        destination_path_trees(topo, [0])
        all_shortest_path_trees(topo)
        assert topo == other  # one indexed, one not
        assert len(pickle.dumps(topo)) == bare
        restored = pickle.loads(pickle.dumps(topo))
        assert restored == topo
        assert restored.adjacency() == topo.adjacency()

    def test_all_pairs_memo_is_shared_across_instances(self):
        assert all_shortest_path_trees(self._triangle()) is all_shortest_path_trees(
            self._triangle()
        )
        assert all_shortest_path_costs(self._triangle())[0] == {0: 0, 1: 2, 2: 3}

    def test_all_pairs_memo_distinguishes_link_less_nodes(self):
        """Regression: the memo was keyed on links alone, so a topology with
        an extra isolated node got the trees of the smaller one and every
        warm start on that node raised KeyError."""
        small = Topology()
        small.connect(0, 1)
        assert set(all_shortest_path_trees(small)) == {0, 1}
        bigger = small.copy()
        bigger.add_node(2)
        trees = all_shortest_path_trees(bigger)
        assert set(trees) == {0, 1, 2}
        assert trees[2] == {2: [2]}
        assert all_shortest_path_costs(bigger)[2] == {2: 0}
