"""Network: live instantiation of a topology.

Builds one :class:`~repro.net.node.Node` per topology node and one
:class:`~repro.net.link.Link` per topology link, wires arrivals into the
nodes and link drops into the nodes' accounting, and offers the lookups the
routing, traffic and failure layers need.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from ..sim.engine import Simulator
from ..sim.tracing import DropCause, TraceBus
from ..topology.graph import Topology
from .link import DEFAULT_QUEUE_CAPACITY, Link
from .node import Node
from .packet import Packet

__all__ = ["Network"]


class Network:
    """All live nodes and links for one simulation run."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        bus: Optional[TraceBus] = None,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        record_paths: bool = False,
        record_forwards: bool = False,
        priority_control: bool = False,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.bus = bus if bus is not None else TraceBus()
        self.nodes: dict[int, Node] = {}
        self.links: dict[tuple[int, int], Link] = {}

        for node_id in sorted(topology.nodes):
            self.nodes[node_id] = Node(
                sim,
                node_id,
                self.bus,
                record_paths=record_paths,
                record_forwards=record_forwards,
            )
        for key, spec in sorted(topology.links.items()):
            link = Link(
                sim,
                spec,
                deliver=None,  # each Node binds its receive (Node.add_link)
                dropper=self._drop,
                queue_capacity=queue_capacity,
                priority_control=priority_control,
            )
            self.links[key] = link
            a, b = key
            self.nodes[a].add_link(b, link)
            self.nodes[b].add_link(a, link)

    # ----------------------------------------------------------------- lookup

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def link(self, a: int, b: int) -> Link:
        return self.links[(min(a, b), max(a, b))]

    def iter_nodes(self) -> Iterator[Node]:
        for node_id in sorted(self.nodes):
            yield self.nodes[node_id]

    def iter_links(self) -> Iterator[Link]:
        for key in sorted(self.links):
            yield self.links[key]

    # ----------------------------------------------------------------- wiring

    def attach_protocols(self, factory: Callable[[Node], object]) -> None:
        """Create one routing protocol per node via ``factory(node)``.

        The factory must return an object implementing the
        :class:`repro.routing.base.RoutingProtocol` interface; it is attached
        to the node automatically if the factory did not already do so.
        """
        for node in self.iter_nodes():
            protocol = factory(node)
            if node.protocol is None:
                node.attach_protocol(protocol)  # type: ignore[arg-type]

    def start_protocols(self) -> None:
        """Invoke ``start()`` on every attached protocol."""
        for node in self.iter_nodes():
            if node.protocol is not None:
                node.protocol.start()

    def close(self) -> None:
        """End the run: close every node (and so its protocol) and link.

        Nodes, links, channels and protocols call one another back, so a
        live network is one large reference cycle; after this it is freed
        by reference count.  FIBs, counters and link states stay readable,
        but nothing can run on the network again.
        """
        for node in self.nodes.values():
            node.close()
        for link in self.links.values():
            link.close()

    # --------------------------------------------------------------- counters

    def total_drops(self, cause: DropCause) -> int:
        """Sum of data-packet drops of ``cause`` across all nodes and links.

        A list, not a generator: every run tallies drops three times, and a
        generator is resumed once per node."""
        return sum([node.drops[cause] for node in self.nodes.values()])

    def total_delivered(self) -> int:
        return sum(node.delivered for node in self.nodes.values())

    # -------------------------------------------------------------- callbacks

    def _drop(self, packet: Packet, node_id: int, cause: DropCause) -> None:
        self.nodes[node_id].drop(packet, cause)
