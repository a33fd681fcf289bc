"""The warm-start path memo keeps the layouts that are reused, and no more.

``per_topology`` keys its results by the whole adjacency, flow hosts
included, so the memo is per layout.  It keeps the ``_MEMO_LAYOUTS`` most
recently looked-up layouts; a run of fresh layouts must not pile up tables,
and a figure-style loop that revisits the same layouts must still compute
each table once.
"""

from __future__ import annotations

import sys

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_point
from repro.experiments.scenario import run_scenario
from repro.topology import graph
from repro.topology.graph import Topology, all_shortest_path_trees

SHORT = ExperimentConfig.quick().with_(post_fail_window=10.0, runs=1)


@pytest.fixture
def memo(monkeypatch):
    """An empty memo for the test; the process's own comes back after."""
    fresh: dict = {}
    monkeypatch.setattr(graph, "_MEMO", fresh)
    return fresh


@pytest.fixture
def all_pairs_computed(monkeypatch):
    """Sizes of the topologies ``_all_pairs`` computed a table for, in order.

    ``_all_pairs`` runs the kernel once per source node, the lowest first;
    a call for that first source is one whole computation.
    """
    computed: list[int] = []
    kernel = graph.shortest_path_tree

    def counting(adj, src):
        if sys._getframe(1).f_code.co_name == "_all_pairs" and src == next(iter(adj)):
            computed.append(len(adj))
        return kernel(adj, src)

    monkeypatch.setattr(graph, "shortest_path_tree", counting)
    return computed


def path_topology(n: int) -> Topology:
    topo = Topology(name=f"path{n}")
    for a in range(n - 1):
        topo.connect(a, a + 1)
    return topo


def test_memo_is_a_plain_dict():
    # tests/validation/test_manet_mutations.py clears it between tests.
    assert type(graph._MEMO) is dict


def test_memo_keeps_the_most_recently_used_layouts(memo, all_pairs_computed):
    sizes = range(2, 2 + graph._MEMO_LAYOUTS)
    for n in sizes:
        all_shortest_path_trees(path_topology(n))
    # A new topology of the oldest layout hits and makes it the newest ...
    all_shortest_path_trees(path_topology(2))
    # ... so one more layout evicts the second oldest instead.
    all_shortest_path_trees(path_topology(99))
    assert len(memo) == graph._MEMO_LAYOUTS
    all_shortest_path_trees(path_topology(2))
    all_shortest_path_trees(path_topology(3))
    assert all_pairs_computed == [*sizes, 99, 3]


def test_an_evicted_table_stays_with_its_topology(memo, all_pairs_computed):
    kept = path_topology(2)
    trees = all_shortest_path_trees(kept)
    for n in range(3, 4 + graph._MEMO_LAYOUTS):
        all_shortest_path_trees(path_topology(n))
    assert len(memo) == graph._MEMO_LAYOUTS
    assert all_shortest_path_trees(kept) is trees
    assert all_pairs_computed.count(2) == 1


def test_fresh_layouts_do_not_pile_up(memo, all_pairs_computed):
    for seed in range(1, 9):
        run_scenario("dbf", 4, seed, SHORT)
    assert len(all_pairs_computed) == 8  # eight distinct layouts, no hit
    assert len(memo) <= graph._MEMO_LAYOUTS


def test_figure_loop_computes_each_layout_once(memo, all_pairs_computed):
    degrees = range(3, 9)
    for protocol in ("dbf", "rip"):
        for degree in degrees:
            run_point(protocol, degree, SHORT, strict=True)
    # One layout per degree (the seed is the same), shared by both protocols.
    assert len(all_pairs_computed) == len(degrees)
