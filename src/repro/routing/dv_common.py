"""Shared machinery for the distance-vector protocols (RIP and DBF).

Both protocols, per the paper's §3:

* advertise their full table every ~30 s (jittered periodic updates);
* apply split horizon with poison reverse (advertise infinity for routes
  whose next hop is the receiving neighbor);
* send triggered updates on route changes, spaced by a damping timer drawn
  uniformly from [1, 5] seconds;
* pack at most 25 destination entries per message;
* time out routes not refreshed for 180 s and garbage-collect them.

Aging runs on one timer per router, armed for the earliest deadline
(``updated_at + route_timeout``) among the live routes: a refresh only moves
a deadline later, so the timer never fires late, and when it fires it times
out every due route and re-arms for the next deadline.

They differ only in route selection: RIP keeps just the current best route
(subclass hook :meth:`_consider_route`), DBF keeps a per-neighbor cache and
re-runs Bellman-Ford over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from ..net.node import Node
from ..sim.rng import RngStreams
from ..sim.timers import JitteredInterval, OneShotTimer, PeriodicTimer
from ..topology.graph import Topology, all_shortest_path_costs, all_shortest_path_trees
from .base import RoutingProtocol
from .messages import DistanceVectorUpdate, pack_distance_vector
from .rib import RIP_INFINITY, DistanceVectorRoute

__all__ = ["DistanceVectorConfig", "DistanceVectorProtocol"]


@dataclass(frozen=True)
class DistanceVectorConfig:
    """Timer and metric parameters (defaults = paper/RFC 2453 values)."""

    update_interval: float = 30.0
    update_jitter: float = 5.0
    route_timeout: float = 180.0
    garbage_collect: float = 120.0
    trigger_damping_min: float = 1.0
    trigger_damping_max: float = 5.0
    infinity: int = RIP_INFINITY
    #: Hold-down period (seconds): after a route is lost, refuse replacement
    #: routes from other neighbors for this long.  0 disables (the paper's
    #: RIP).  Classic IGRP/RIP deployments used ~3x the update interval; the
    #: ablation shows it trades recovery speed for count-to-infinity
    #: insurance.
    holddown: float = 0.0

    def __post_init__(self) -> None:
        if self.update_interval <= 0:
            raise ValueError("update_interval must be positive")
        if not 0 <= self.update_jitter <= self.update_interval:
            raise ValueError("update_jitter out of range")
        if self.route_timeout <= self.update_interval:
            raise ValueError("route_timeout must exceed update_interval")
        if self.trigger_damping_min < 0 or self.trigger_damping_max < self.trigger_damping_min:
            raise ValueError("bad trigger damping range")
        if self.infinity < 2:
            raise ValueError("infinity metric must be >= 2")
        if self.holddown < 0:
            raise ValueError("holddown must be >= 0")


class DistanceVectorProtocol(RoutingProtocol):
    """Common RIP/DBF behavior; see module docstring."""

    def __init__(
        self,
        node: Node,
        rng_streams: RngStreams,
        config: Optional[DistanceVectorConfig] = None,
    ) -> None:
        super().__init__(node, rng_streams)
        self.config = config or DistanceVectorConfig()
        self.table: dict[int, DistanceVectorRoute] = {}
        self._periodic = PeriodicTimer(
            self.sim,
            JitteredInterval(self.config.update_interval, self.config.update_jitter, self.rng),
            self._send_periodic,
        )
        self._damping = OneShotTimer(self.sim, self._flush_triggered)
        self._aging = OneShotTimer(self.sim, self._age_routes)
        self._pending_triggered: set[int] = set()

    # --------------------------------------------------------------- lifecycle

    def start(self) -> None:
        self._install_self_route()
        # Desynchronized first fire, as routers boot at different instants.
        self._periodic.start(initial_delay=self.rng.uniform(0.1, 1.0))

    def warm_start(self, topology: Topology) -> None:
        self._install_self_route()
        tree = all_shortest_path_trees(topology)[self.node.id]
        costs = all_shortest_path_costs(topology)[self.node.id]
        for dest, path in tree.items():
            if dest == self.node.id:
                continue
            cost = costs[dest]
            if cost >= self.config.infinity:
                continue
            route = DistanceVectorRoute(
                dest=dest, metric=cost, next_hop=path[1], updated_at=self.sim.now
            )
            self.table[dest] = route
            self.node.set_next_hop(dest, path[1])
        self._arm_aging()
        self._warm_start_extra(topology, tree)
        # Random phase: routers' periodic cycles are not synchronized.
        self._periodic.start(initial_delay=self.rng.uniform(0, self.config.update_interval))

    def close(self) -> None:
        self._periodic.stop()  # a repeating timer and its handle are a cycle
        super().close()

    def _warm_start_extra(self, topology: Topology, tree: dict[int, list[int]]) -> None:
        """Subclass hook to prefill extra converged state (DBF's caches)."""

    def _install_self_route(self) -> None:
        self.table[self.node.id] = DistanceVectorRoute(
            dest=self.node.id, metric=0, next_hop=None, updated_at=float("inf")
        )

    # ----------------------------------------------------------------- events

    def handle_message(self, payload: Any, from_node: int) -> None:
        if not isinstance(payload, DistanceVectorUpdate):
            raise TypeError(f"{self.name} got unexpected payload {type(payload).__name__}")
        link = self.node.links.get(from_node)
        if link is None or not link.up:
            return  # stale message from a dead adjacency
        cost = link.spec.cost
        changed: set[int] = set()
        for dest, advertised in payload.routes:
            if dest == self.node.id:
                continue
            if self._consider_route(dest, min(advertised, self.config.infinity), cost, from_node):
                changed.add(dest)
        if changed:
            self._routes_changed(changed)

    def handle_link_down(self, neighbor: int) -> None:
        changed = self._neighbor_lost(neighbor)
        if changed:
            self._routes_changed(changed)

    def handle_link_up(self, neighbor: int) -> None:
        # Introduce ourselves promptly; the neighbor's periodic update will
        # teach us its table.
        self._advertise(neighbor, self._full_table_view(neighbor))

    # ------------------------------------------------------- selection hooks

    def _consider_route(self, dest: int, advertised: int, cost: int, from_node: int) -> bool:
        """Integrate one advertised route (raw neighbor metric ``advertised``,
        link cost ``cost``); return True if the table changed."""
        raise NotImplementedError

    def _neighbor_lost(self, neighbor: int) -> set[int]:
        """React to a dead adjacency; return the set of changed destinations."""
        raise NotImplementedError

    # ---------------------------------------------------------- table updates

    def _set_route(self, dest: int, metric: int, next_hop: Optional[int]) -> bool:
        """Install (dest, metric, next_hop); returns True if anything changed.

        A metric at/above infinity marks the route unreachable: the table
        entry is kept (poisoned) for advertisement until garbage collection,
        but the FIB entry is removed.
        """
        metric = min(metric, self.config.infinity)
        route = self.table.get(dest)
        now = self.sim.now
        if metric >= self.config.infinity:
            if route is None or route.metric >= self.config.infinity:
                if route is not None:
                    route.updated_at = now
                return False
            route.metric = self.config.infinity
            route.next_hop = None
            route.updated_at = now
            self.node.set_next_hop(dest, None)
            self._schedule_garbage_collect(dest)
            return True
        if route is None:
            route = DistanceVectorRoute(dest, metric, next_hop, updated_at=now)
            self.table[dest] = route
            self.node.set_next_hop(dest, next_hop)
            self._arm_aging()
            return True
        if route.metric >= self.config.infinity:
            self._arm_aging()  # back to life: aged again
        changed = (route.metric != metric) or (route.next_hop != next_hop)
        route.metric = metric
        route.next_hop = next_hop
        route.updated_at = now
        if changed:
            self.node.set_next_hop(dest, next_hop)
        return changed

    def route_metric(self, dest: int) -> Optional[int]:
        route = self.table.get(dest)
        if route is None or route.metric >= self.config.infinity:
            return None
        return route.metric

    # ----------------------------------------------------------- route aging

    def _arm_aging(self) -> None:
        """Start the aging timer if it is idle.  A route that comes to life
        has the latest deadline of all, so a running timer is early enough."""
        if not self._aging.running:
            self._aging.start(self.config.route_timeout)

    def _age_routes(self) -> None:
        """Time out every due route, in table order, then re-arm for the
        earliest deadline left (a timed-out DBF route may live on through an
        alternate, with a fresh deadline)."""
        timeout, infinity = self.config.route_timeout, self.config.infinity
        now = self.sim.now
        for dest, route in list(self.table.items()):
            if route.metric < infinity and now - route.updated_at >= timeout:
                with self.route_cause("timeout", dest):
                    changed = self._route_timed_out(dest)
                    if changed:
                        self._routes_changed(changed)
        oldest = min(
            (route.updated_at for route in self.table.values() if route.metric < infinity),
            default=math.inf,
        )
        if oldest < math.inf:  # the self route never ages
            self._aging.start(timeout - (now - oldest))

    def _route_timed_out(self, dest: int) -> set[int]:
        """Default: poison the route.  DBF re-selects from its cache instead."""
        if self._set_route(dest, self.config.infinity, None):
            return {dest}
        return set()

    def _schedule_garbage_collect(self, dest: int) -> None:
        def collect() -> None:
            route = self.table.get(dest)
            if route is not None and route.metric >= self.config.infinity:
                del self.table[dest]

        self.sim.schedule(self.config.garbage_collect, collect)

    # ------------------------------------------------------------ advertising

    def _routes_changed(self, dests: set[int]) -> None:
        """Queue a triggered update for ``dests`` (damped per the paper)."""
        self._pending_triggered.update(dests)
        if not self._damping.running:
            self._flush_triggered()

    def _flush_triggered(self) -> None:
        if not self._pending_triggered:
            return
        dests = sorted(self._pending_triggered)
        self._pending_triggered.clear()
        for nbr in self.node.up_neighbors():
            view = [(d, self._advertised_metric(d, nbr)) for d in dests if d in self.table]
            self._advertise(nbr, view)
        self._damping.start(
            self.rng.uniform(self.config.trigger_damping_min, self.config.trigger_damping_max)
        )

    def _send_periodic(self) -> None:
        for nbr in self.node.up_neighbors():
            self._advertise(nbr, self._full_table_view(nbr))

    def _full_table_view(self, neighbor: int) -> list[tuple[int, int]]:
        return [(dest, self._advertised_metric(dest, neighbor)) for dest in sorted(self.table)]

    def _advertised_metric(self, dest: int, neighbor: int) -> int:
        """Split horizon with poison reverse."""
        route = self.table[dest]
        if route.next_hop == neighbor:
            return self.config.infinity
        return min(route.metric, self.config.infinity)

    def _advertise(self, neighbor: int, routes: Iterable[tuple[int, int]]) -> None:
        for message in pack_distance_vector(routes):
            self._send(neighbor, message, len(message))
