"""Unit + property tests for RIB structures."""

from __future__ import annotations

import pickle
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.routing.dv_common import DistanceVectorConfig
from repro.routing.messages import DistanceVectorUpdate, PathVectorUpdate
from repro.routing.rib import (
    RIP_INFINITY,
    NeighborVectorCache,
    PathAttr,
    best_vector_choice,
)
from repro.topology import generators

from ..conftest import build_network


def links(costs: dict[int, int], down: tuple[int, ...] = ()):
    """``(neighbor, link)`` pairs, ascending, as a node's links read."""
    return tuple(
        (nbr, SimpleNamespace(up=nbr not in down, spec=SimpleNamespace(cost=cost)))
        for nbr, cost in sorted(costs.items())
    )


class TestDistanceVectorRoute:
    def test_route_metric_reachability_follows_configured_infinity(self):
        # Experiments run at infinity 32: a metric-20 route is reachable.
        sim, net, _ = build_network(
            generators.line(2), "rip", dv_config=DistanceVectorConfig(infinity=32)
        )
        proto = net.node(0).protocol
        proto.start()
        proto.handle_message(DistanceVectorUpdate(routes=((5, 19),)), from_node=1)
        assert proto.route_metric(5) == 20
        proto.handle_message(DistanceVectorUpdate(routes=((5, 31),)), from_node=1)
        assert proto.route_metric(5) is None


class TestNeighborVectorCache:
    def test_learn_and_advertised(self):
        cache = NeighborVectorCache()
        cache.learn(1, 9, 4)
        assert cache.advertised(1, 9) == 4

    def test_unknown_is_infinity(self):
        cache = NeighborVectorCache()
        assert cache.advertised(1, 9) == RIP_INFINITY

    def test_metrics_clamped_to_infinity(self):
        cache = NeighborVectorCache()
        cache.learn(1, 9, 99)
        assert cache.advertised(1, 9) == RIP_INFINITY

    def test_forget_neighbor(self):
        cache = NeighborVectorCache()
        cache.learn(1, 9, 4)
        cache.forget_neighbor(1)
        assert cache.advertised(1, 9) == RIP_INFINITY

    def test_vectors_are_per_neighbor(self):
        cache = NeighborVectorCache()
        cache.learn(1, 9, 4)
        cache.learn(2, 8, 3)
        assert (cache.advertised(1, 9), cache.advertised(2, 8)) == (4, 3)
        assert cache.advertised(1, 8) == cache.advertised(2, 9) == RIP_INFINITY


class TestBestVectorChoice:
    def test_picks_minimum_metric(self):
        cache = NeighborVectorCache()
        cache.learn(1, 9, 4)
        cache.learn(2, 9, 2)
        metric, nbr = best_vector_choice(cache, 9, links({1: 1, 2: 1}))
        assert (metric, nbr) == (3, 2)

    def test_tie_breaks_by_lowest_neighbor(self):
        cache = NeighborVectorCache()
        cache.learn(5, 9, 2)
        cache.learn(3, 9, 2)
        metric, nbr = best_vector_choice(cache, 9, links({3: 1, 5: 1}))
        assert nbr == 3

    def test_excluded_neighbors_ignored(self):
        cache = NeighborVectorCache()
        cache.learn(1, 9, 1)
        cache.learn(2, 9, 5)
        metric, nbr = best_vector_choice(cache, 9, links({1: 1, 2: 1}, down=(1,)))
        assert nbr == 2

    def test_all_infinity_unreachable(self):
        cache = NeighborVectorCache()
        cache.learn(1, 9, RIP_INFINITY)
        metric, nbr = best_vector_choice(cache, 9, links({1: 1}))
        assert (metric, nbr) == (RIP_INFINITY, None)

    def test_link_cost_added(self):
        cache = NeighborVectorCache()
        cache.learn(1, 9, 2)
        metric, nbr = best_vector_choice(cache, 9, links({1: 5}))
        assert metric == 7

    @given(
        metrics=st.dictionaries(
            st.integers(min_value=1, max_value=8),
            st.integers(min_value=0, max_value=20),
            min_size=1,
            max_size=8,
        )
    )
    def test_property_result_is_true_minimum(self, metrics):
        cache = NeighborVectorCache()
        for nbr, m in metrics.items():
            cache.learn(nbr, 99, m)
        metric, nbr = best_vector_choice(cache, 99, links({nbr: 1 for nbr in metrics}))
        candidates = [min(m, RIP_INFINITY) + 1 for m in metrics.values()]
        true_min = min(candidates)
        if true_min >= RIP_INFINITY:
            assert nbr is None
        else:
            assert metric == true_min
            assert nbr == min(
                n for n, m in metrics.items() if min(m, RIP_INFINITY) + 1 == true_min
            )


class TestPathAttr:
    def test_basic_properties(self):
        p = PathAttr.of((3, 5, 9))
        assert p.dest == 9
        assert p.first_hop == 3
        assert len(p) == 3
        assert p.contains(5)
        assert not p.contains(4)

    def test_prepend(self):
        p = PathAttr.of((3, 9)).prepend(1)
        assert p.nodes == (1, 3, 9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PathAttr.of(())

    def test_repeated_node_rejected(self):
        with pytest.raises(ValueError):
            PathAttr.of((1, 2, 1))

    def test_prepend_of_a_contained_node_rejected(self):
        p = PathAttr.of((3, 5, 9))
        for node in p.nodes:
            with pytest.raises(ValueError):
                p.prepend(node)

    def test_slotted_and_immutable(self):
        p = PathAttr.of((3, 9)).prepend(1)
        assert not hasattr(p, "__dict__")
        with pytest.raises(AttributeError):
            p.nodes = (1,)

    def test_prepended_path_equals_constructed_one(self):
        p = PathAttr.of((3, 9)).prepend(1)
        assert p == PathAttr.of((1, 3, 9))
        assert hash(p) == hash(PathAttr.of((1, 3, 9)))

    def test_update_round_trips_through_pickle(self):
        # Shard relays pickle control payloads.
        update = PathVectorUpdate(path=PathAttr.of((3, 9)).prepend(1), dests=(9,))
        copy = pickle.loads(pickle.dumps(update))
        assert copy == update
        assert copy.path.nodes == (1, 3, 9)

    def test_preference_shorter_wins(self):
        short = PathAttr.of((9, 5))
        long = PathAttr.of((2, 3, 5))
        assert min([long, short], key=PathAttr.preference_key) is short

    def test_preference_tie_breaks_on_first_hop(self):
        a = PathAttr.of((2, 5))
        b = PathAttr.of((3, 5))
        assert min([b, a], key=PathAttr.preference_key) is a

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=10, unique=True))
    def test_property_prepend_extends_length(self, nodes):
        p = PathAttr.of(tuple(nodes))
        new_node = max(nodes) + 1
        q = p.prepend(new_node)
        assert len(q) == len(p) + 1
        assert q.first_hop == new_node
        assert q.dest == p.dest
