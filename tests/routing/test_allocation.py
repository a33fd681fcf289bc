"""Per-router state is allocated on first use.

A router holds only what it touches: its protocol's ``random.Random`` is
created on its first draw, and a warm-started BGP network costs a pinned
number of traced bytes per node.  Memory per router is what limits a
single-process run at scale (docs/distributed.md, "Memory per router").
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.net.network import Network
from repro.routing.catalog import build_factory
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.topology.generators import scale_free

SEED = 3


def _warm_bgp3(topology):
    """A warm-started bgp3 network on ``topology``, with the warm start
    restricted to one flow's two destinations, as at scale."""
    n_nodes = topology.n_nodes
    network = Network(Simulator(), topology)
    streams = RngStreams(SEED)
    make = build_factory("bgp3", network, streams, topology, 16)
    for node in network.nodes.values():
        make(node)
    for node in network.nodes.values():
        node.protocol.warm_start(topology, dests=(n_nodes - 1, n_nodes - 2))
    return network, streams


def test_routers_that_have_not_drawn_hold_no_rng():
    network, streams = _warm_bgp3(scale_free(200, m=2, seed=SEED))
    assert streams._streams == {}
    assert not any("rng" in vars(node.protocol) for node in network.nodes.values())


def test_a_draw_creates_only_that_routers_stream():
    network, streams = _warm_bgp3(scale_free(50, m=2, seed=SEED))
    protocol = network.node(7).protocol
    protocol.rng.random()
    assert list(streams._streams) == ["bgp3.node7"]
    assert protocol.rng is streams.stream("bgp3.node7")
    assert [n for n, node in network.nodes.items() if "rng" in vars(node.protocol)] == [7]


def test_a_lazy_stream_draws_what_an_eager_one_does():
    network, streams = _warm_bgp3(scale_free(50, m=2, seed=SEED))
    # Other routers draw first: creation order must not matter.
    for node_id in (3, 11, 40):
        network.node(node_id).protocol.rng.random()
    lazy = [network.node(17).protocol.rng.random() for _ in range(1000)]
    eager = RngStreams(SEED).stream("bgp3.node17")
    assert lazy == [eager.random() for _ in range(1000)]


#: Traced bytes per node of a warm-started 2 000-node bgp3 network: 9 592
#: measured (Python 3.11), plus 10 % headroom.  Eager RNG streams, a deque
#: per queue and a lambda per session read 16 987.
BYTES_PER_NODE_BOUND = 10_550


def test_traced_bytes_per_node_of_a_warm_bgp3_network():
    n_nodes = 2000
    topology = scale_free(n_nodes, m=2, seed=SEED)
    _warm_bgp3(topology)  # imports and module-level caches settle first
    gc.collect()
    tracemalloc.start()
    try:
        network, _ = _warm_bgp3(topology)
        gc.collect()
        traced, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(network.nodes) == n_nodes
    assert traced / n_nodes <= BYTES_PER_NODE_BOUND, traced / n_nodes
