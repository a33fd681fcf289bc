"""DBF — Distributed Bellman-Ford with per-neighbor caches.

Per the paper's §3, DBF is identical to RIP except that "a router keeps a
cache of the latest routing update learned from each of its neighbors.
Whenever a router notices that it cannot reach a destination through the
current next hop, the router can immediately select an alternate next hop" —
a zero-time path switch-over.

The cache stores the *advertised* metrics (post split horizon with poison
reverse), so a neighbor that routes through us appears as infinity and is
never chosen as an alternate: the two-hop loop prevention the paper credits
for raising the probability of valid alternate paths.
"""

from __future__ import annotations

from typing import Optional

from ..net.node import Node
from ..sim.rng import RngStreams
from ..topology.graph import Topology, all_shortest_path_costs, all_shortest_path_trees
from .dv_common import DistanceVectorConfig, DistanceVectorProtocol
from .rib import NeighborVectorCache, best_vector_choice

__all__ = ["DbfProtocol"]


class DbfProtocol(DistanceVectorProtocol):
    """Distance vector with alternate-path cache (instant switch-over)."""

    name = "dbf"

    def __init__(self, node: Node, rng_streams: RngStreams, config=None) -> None:
        super().__init__(node, rng_streams, config)
        self.cache = NeighborVectorCache(infinity=self.config.infinity)
        #: ``node.links`` as sorted ``(neighbor, link)`` pairs; links are only
        #: ever added (``Node.add_link``), so a length change means stale.
        self._links: tuple = ()

    # ------------------------------------------------------------- selection

    def _consider_route(self, dest: int, advertised: int, cost: int, from_node: int) -> bool:
        self.cache.learn(from_node, dest, advertised)
        return self._reselect(dest, heard_from=from_node)

    def _neighbor_lost(self, neighbor: int) -> set[int]:
        self.cache.forget_neighbor(neighbor)
        changed = set()
        for dest, route in list(self.table.items()):
            if route.next_hop == neighbor:
                if self._reselect(dest):
                    changed.add(dest)
        return changed

    def _route_timed_out(self, dest: int) -> set[int]:
        # The current next hop went silent: distrust its cache entry for this
        # destination, then fall back to the best remaining alternate.
        route = self.table.get(dest)
        if route is not None and route.next_hop is not None:
            self.cache.learn(route.next_hop, dest, self.config.infinity)
        if self._reselect(dest):
            return {dest}
        return set()

    def _reselect(self, dest: int, heard_from: Optional[int] = None) -> bool:
        """Bellman-Ford over the cache; returns True if the route changed.

        As in RIP (RFC 2453), an unchanged choice keeps its deadline unless
        the news came from its next hop: a silent next hop times out even
        while another neighbor keeps advertising.
        """
        if dest == self.node.id:
            return False
        if len(self._links) != len(self.node.links):
            self._links = tuple(sorted(self.node.links.items()))
        metric, next_hop = best_vector_choice(
            self.cache, dest, self._links, infinity=self.config.infinity
        )
        route = self.table.get(dest)
        unchanged = route is not None and (route.metric, route.next_hop) == (metric, next_hop)
        if unchanged and heard_from != next_hop:
            return False
        return self._set_route(dest, metric, next_hop)

    # ------------------------------------------------------------ warm start

    def _warm_start_extra(self, topology: Topology, tree: dict[int, list[int]]) -> None:
        trees = all_shortest_path_trees(topology)
        costs = all_shortest_path_costs(topology)
        for nbr in self.node.up_neighbors():
            for dest, path in trees[nbr].items():
                if dest == nbr:
                    self.cache.learn(nbr, dest, 0)
                    continue
                next_hop = path[1]
                if next_hop == self.node.id:
                    # Poison reverse: the neighbor routes through us.
                    self.cache.learn(nbr, dest, self.config.infinity)
                    continue
                self.cache.learn(nbr, dest, costs[nbr][dest])
