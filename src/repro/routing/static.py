"""Static routing: tables fixed at shortest paths, never updated.

Used by unit tests and examples that need a deterministic data plane, and as
the degenerate baseline (a network that never reconverges) in ablations.
"""

from __future__ import annotations

from typing import Any, Optional

from ..net.node import Node
from ..sim.rng import RngStreams
from ..topology.graph import Topology, all_shortest_path_costs, all_shortest_path_trees
from .base import RoutingProtocol

__all__ = ["StaticProtocol"]


class StaticProtocol(RoutingProtocol):
    """Install shortest paths once; ignore every subsequent event."""

    name = "static"

    def __init__(self, node: Node, rng_streams: RngStreams, topology: Topology) -> None:
        super().__init__(node, rng_streams)
        self._topology = topology
        self._metrics: dict[int, int] = {}

    def start(self) -> None:
        self.warm_start(self._topology)

    def warm_start(self, topology: Topology) -> None:
        tree = all_shortest_path_trees(topology)[self.node.id]
        costs = all_shortest_path_costs(topology)[self.node.id]
        for dest, path in tree.items():
            if dest == self.node.id:
                continue
            self.node.set_next_hop(dest, path[1])
            self._metrics[dest] = costs[dest]

    def handle_message(self, payload: Any, from_node: int) -> None:
        raise TypeError("static routing exchanges no messages")

    def handle_link_down(self, neighbor: int) -> None:
        pass  # static: never adapts

    def route_metric(self, dest: int) -> Optional[int]:
        if dest == self.node.id:
            return 0
        return self._metrics.get(dest)
