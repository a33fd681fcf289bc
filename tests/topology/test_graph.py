"""Unit tests for the topology graph model."""

from __future__ import annotations

import pytest

from repro.topology.graph import (
    LinkSpec,
    Topology,
    all_shortest_path_trees,
    merge,
    shortest_path_tree,
)


class TestLinkSpec:
    def test_endpoints_canonical_order(self):
        assert LinkSpec(5, 2).endpoints == (2, 5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"a": 1, "b": 1},
            {"a": 1, "b": 2, "cost": 0},
            {"a": 1, "b": 2, "delay": -1.0},
            {"a": 1, "b": 2, "bandwidth": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LinkSpec(**kwargs)


class TestTopology:
    def test_connect_adds_nodes(self):
        topo = Topology()
        topo.connect(1, 2)
        assert topo.nodes == {1, 2}
        assert topo.has_link(2, 1)

    def test_duplicate_link_rejected(self):
        topo = Topology()
        topo.connect(1, 2)
        with pytest.raises(ValueError):
            topo.connect(2, 1)

    def test_neighbors_sorted(self):
        topo = Topology()
        topo.connect(5, 1)
        topo.connect(5, 3)
        topo.connect(5, 2)
        assert list(topo.neighbors(5)) == [1, 2, 3]

    def test_degree(self):
        topo = Topology()
        topo.connect(0, 1)
        topo.connect(0, 2)
        assert topo.degree(0) == 2
        assert topo.degree(1) == 1

    def test_is_connected(self):
        topo = Topology()
        topo.connect(0, 1)
        topo.add_node(9)
        assert not topo.is_connected()

    def test_copy_is_independent(self):
        topo = Topology()
        topo.connect(0, 1)
        clone = topo.copy("clone")
        clone.connect(1, 2)
        assert not topo.has_link(1, 2)

    def test_merge_disjoint(self):
        a = Topology("a")
        a.connect(0, 1)
        b = Topology("b")
        b.connect(10, 11)
        merged = merge("m", [a, b])
        assert merged.n_nodes == 4
        assert merged.n_links == 2


class TestShortestPaths:
    def test_simple_path(self):
        topo = Topology()
        topo.connect(0, 1)
        topo.connect(1, 2)
        assert topo.shortest_path(0, 2) == [0, 1, 2]

    def test_disconnected_returns_none(self):
        topo = Topology()
        topo.connect(0, 1)
        topo.add_node(5)
        assert topo.shortest_path(0, 5) is None

    def test_exclude_link_forces_detour(self):
        topo = Topology()
        topo.connect(0, 1)
        topo.connect(1, 3)
        topo.connect(0, 2)
        topo.connect(2, 3)
        direct = topo.shortest_path(0, 3)
        assert direct == [0, 1, 3]  # lexicographic tie-break: via 1
        detour = topo.shortest_path(0, 3, exclude_link=(0, 1))
        assert detour == [0, 2, 3]

    def test_costs_respected(self):
        topo = Topology()
        topo.connect(0, 1, cost=10)
        topo.connect(0, 2, cost=1)
        topo.connect(2, 1, cost=1)
        assert topo.shortest_path(0, 1) == [0, 2, 1]

    def test_deterministic_tie_break_lowest_ids(self):
        # Diamond with two equal-cost paths: 0-1-3 and 0-2-3.
        topo = Topology()
        for a, b in [(0, 1), (0, 2), (1, 3), (2, 3)]:
            topo.connect(a, b)
        assert topo.shortest_path(0, 3) == [0, 1, 3]

    def test_tree_consistency_with_single_queries(self):
        topo = Topology()
        for a, b in [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]:
            topo.connect(a, b)
        tree, _ = shortest_path_tree(topo.adjacency(), 0)
        for dest in topo.nodes:
            assert tree[dest] == topo.shortest_path(0, dest)

    def test_all_pairs_cache_returns_same_object(self):
        topo = Topology()
        topo.connect(0, 1)
        assert all_shortest_path_trees(topo) is all_shortest_path_trees(topo)

    def test_all_pairs_covers_every_source(self):
        topo = Topology()
        for a, b in [(0, 1), (1, 2)]:
            topo.connect(a, b)
        trees = all_shortest_path_trees(topo)
        assert set(trees) == {0, 1, 2}
        assert trees[2][0] == [2, 1, 0]

    def test_tree_paths_are_prefix_consistent(self):
        """Subpath optimality: every prefix of a tree path is the tree path
        of the intermediate node . . . the property warm starts rely on."""
        from repro.topology.mesh import regular_mesh

        topo = regular_mesh(4, 4, 5)
        tree, _ = shortest_path_tree(topo.adjacency(), 0)
        for dest, path in tree.items():
            for i in range(1, len(path)):
                assert tree[path[i]] == path[: i + 1]
