"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import weakref

import pytest

from repro.net.network import Network
from repro.net.packet import reset_packet_ids
from repro.obs.flight import FlightRecorder
from repro.routing.aodv import AodvProtocol
from repro.routing.bgp import BgpConfig, BgpProtocol
from repro.routing.dsr import DsrProtocol
from repro.routing.olsr import OlsrProtocol
from repro.routing.dbf import DbfProtocol
from repro.routing.dual import DualProtocol
from repro.routing.dv_common import DistanceVectorConfig
from repro.routing.rip import RipProtocol
from repro.routing.spf import SpfProtocol
from repro.routing.static import StaticProtocol
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.tracing import TraceBus
from repro.topology import generators
from repro.topology.graph import Topology


@pytest.fixture(autouse=True)
def _fresh_packet_ids():
    reset_packet_ids()
    yield


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rng() -> RngStreams:
    return RngStreams(12345)


@pytest.fixture
def recorder() -> FlightRecorder:
    return FlightRecorder()


@pytest.fixture
def bus(recorder: FlightRecorder) -> TraceBus:
    """A bus whose every record lands in the ``recorder`` fixture."""
    bus = TraceBus()
    recorder.attach(bus)
    return bus


#: The recorder :func:`recording_network` attached to each network it built,
#: keyed weakly so that an entry goes with its network.
_RECORDERS: "weakref.WeakKeyDictionary[Network, FlightRecorder]" = (
    weakref.WeakKeyDictionary()
)


def recording_network(sim: Simulator, topo: Topology, **kwargs) -> Network:
    """A :class:`Network` on a fresh bus whose every trace record a
    :class:`FlightRecorder` keeps; read them with :func:`recorded`."""
    recorder = FlightRecorder()
    bus = TraceBus()
    recorder.attach(bus)
    network = Network(sim, topo, bus, **kwargs)
    _RECORDERS[network] = recorder
    return network


def recorded(network: Network) -> dict[str, list]:
    """The trace streams, by kind, of a network :func:`recording_network`
    built.  Each is the recorder's live list: ``recorded(net)["route"]
    .clear()`` empties it between phases of a test.
    """
    return _RECORDERS[network].streams


def build_network(
    topo: Topology,
    protocol: str = "none",
    seed: int = 1,
    queue_capacity: int = 20,
    record_paths: bool = False,
    dv_config: DistanceVectorConfig | None = None,
    bgp_config: BgpConfig | None = None,
) -> tuple[Simulator, Network, RngStreams]:
    """Build a live network with one protocol family attached everywhere.

    ``protocol``: "rip" | "dbf" | "bgp" | "spf" | "static" | "none".
    Protocols are created but NOT started; call ``network.start_protocols()``
    or ``warm_start`` them per test.  Read the trace records with
    :func:`recorded`.
    """
    sim = Simulator()
    rng_streams = RngStreams(seed)
    network = recording_network(
        sim, topo, queue_capacity=queue_capacity, record_paths=record_paths
    )
    if protocol != "none":

        def factory(node):
            if protocol == "rip":
                return RipProtocol(node, rng_streams, dv_config)
            if protocol == "dbf":
                return DbfProtocol(node, rng_streams, dv_config)
            if protocol == "bgp":
                return BgpProtocol(node, rng_streams, network, bgp_config)
            if protocol == "dual":
                return DualProtocol(node, rng_streams, network)
            if protocol == "spf":
                return SpfProtocol(node, rng_streams)
            if protocol == "static":
                return StaticProtocol(node, rng_streams, topo)
            if protocol == "aodv":
                return AodvProtocol(node, rng_streams)
            if protocol == "dsr":
                return DsrProtocol(node, rng_streams)
            if protocol == "olsr":
                return OlsrProtocol(node, rng_streams)
            raise ValueError(protocol)

        network.attach_protocols(factory)
    return sim, network, rng_streams


def line_topology(n: int) -> Topology:
    return generators.line(n)


def ring_topology(n: int) -> Topology:
    return generators.ring(n)


def routes_converged(network: Network, infinity: int = 10_000) -> bool:
    """True if every node's FIB matches deterministic shortest paths."""
    from repro.topology.graph import shortest_path_tree

    graph = network.topology.adjacency()
    for node in network.iter_nodes():
        tree, _ = shortest_path_tree(graph, node.id)
        for dest, path in tree.items():
            if dest == node.id:
                continue
            if len(path) - 1 >= infinity:
                continue
            if node.next_hop(dest) is None:
                return False
    return True


def metrics_match_shortest_paths(network: Network) -> bool:
    """True if every protocol metric equals the true shortest-path cost."""
    import networkx as nx

    graph = network.topology.to_networkx()
    lengths = dict(nx.all_pairs_dijkstra_path_length(graph, weight="weight"))
    for node in network.iter_nodes():
        assert node.protocol is not None
        for dest in network.topology.nodes:
            if dest == node.id:
                continue
            expected = lengths[node.id].get(dest)
            actual = node.protocol.route_metric(dest)
            if expected != actual:
                return False
    return True
