"""RIP (RFC 2453 semantics, as modeled in the paper).

A RIP router keeps only the best route per destination — no alternate-path
information.  When the link to the current next hop fails (or the next hop
reports the destination unreachable), the router loses all reachability and
must wait for another neighbor's *periodic* update (up to 30 s) to learn an
alternate path: the paper's "long path switch-over period" (§4.1).

Everything else (periodic/triggered updates, split horizon with poison
reverse, damping, aging, 25-entry packing) lives in
:class:`~repro.routing.dv_common.DistanceVectorProtocol`.
"""

from __future__ import annotations

from .dv_common import DistanceVectorConfig, DistanceVectorProtocol

__all__ = ["RipProtocol", "DistanceVectorConfig"]


class RipProtocol(DistanceVectorProtocol):
    """Classic RIP: best-route-only distance vector.

    With ``config.holddown > 0``, a lost route enters a hold-down period
    during which replacement news from *other* neighbors is refused (only
    the neighbor that lost the route may revive it) — the classic
    count-to-infinity insurance, at the price of even slower recovery.
    """

    name = "rip"

    def __init__(self, node, rng_streams, config=None) -> None:
        super().__init__(node, rng_streams, config)
        # dest -> (holddown expiry time, neighbor that lost the route).
        self._holddown: dict[int, tuple[float, int]] = {}

    def _consider_route(self, dest: int, advertised: int, cost: int, from_node: int) -> bool:
        metric = min(advertised + cost, self.config.infinity)
        route = self.table.get(dest)
        if route is None:
            if metric >= self.config.infinity:
                return False
            if self._held_down(dest, from_node):
                return False
            return self._set_route(dest, metric, from_node)
        if route.next_hop == from_node:
            # News from the current next hop is always adopted, even if worse
            # (this is what lets RIP count up through a failure).
            if metric >= self.config.infinity:
                self._enter_holddown(dest, from_node)
                return self._set_route(dest, self.config.infinity, None)
            return self._set_route(dest, metric, from_node)
        if route.metric >= self.config.infinity and self._held_down(dest, from_node):
            return False
        if metric < route.metric:
            return self._set_route(dest, metric, from_node)
        return False

    def _neighbor_lost(self, neighbor: int) -> set[int]:
        # No cache: every route through the dead neighbor is simply lost.
        changed = set()
        for dest, route in list(self.table.items()):
            if route.next_hop == neighbor:
                self._enter_holddown(dest, neighbor)
                if self._set_route(dest, self.config.infinity, None):
                    changed.add(dest)
        return changed

    # ------------------------------------------------------------- hold-down

    def _enter_holddown(self, dest: int, original_next_hop: int) -> None:
        if self.config.holddown > 0:
            self._holddown[dest] = (
                self.sim.now + self.config.holddown,
                original_next_hop,
            )

    def _held_down(self, dest: int, from_node: int) -> bool:
        """True if ``dest`` is in hold-down and ``from_node`` may not revive it."""
        entry = self._holddown.get(dest)
        if entry is None:
            return False
        until, original = entry
        if self.sim.now >= until:
            del self._holddown[dest]
            return False
        return from_node != original
