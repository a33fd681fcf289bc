"""SPF — a minimal link-state protocol (the paper's future-work extension).

The paper's §6 proposes extending the comparison to link-state routing; this
module provides that extension.  Each router originates a Link State
Advertisement (LSA) describing its live adjacencies, floods LSAs with
sequence-number-based duplicate suppression, and recomputes shortest paths
(deterministic Dijkstra, same tie-break as the other protocols) whenever the
two-way-checked view of its link-state database changes.

Two knobs model real deployments (and enable the fast-reroute ablation from
the paper's related work — Alaettinoglu/Zinin's "IGP fast reroute" [1] and
Wang/Crowcroft's "emergency exits" [27]):

* ``spf_delay`` — SPF computation throttling: recomputation runs this long
  after the triggering database change (0 = the idealized instant SPF);
* ``lfa`` — precomputed Loop-Free Alternates: alongside each primary next
  hop, the router precomputes a backup neighbor ``n`` satisfying the LFA
  condition ``dist(n, d) < dist(n, s) + dist(s, d)`` (so ``n`` does not route
  back through us) and installs it the instant the primary's link dies —
  data-plane protection while the control plane is still recomputing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..net.node import Node
from ..net.packet import CONTROL_HEADER_BYTES
from ..sim.rng import RngStreams
from ..sim.timers import OneShotTimer
from ..topology.graph import Adjacency, Topology, shortest_path_tree
from .base import RoutingProtocol

__all__ = ["Lsa", "SpfConfig", "SpfProtocol"]

#: Bytes per adjacency entry in an LSA.
LSA_LINK_BYTES = 8

#: The listing of an origin the database does not hold.
_NO_LINKS: dict[int, int] = {}


@dataclass(frozen=True)
class Lsa:
    """One router's view of its own adjacencies."""

    origin: int
    seq: int
    #: (neighbor, cost) pairs for every live adjacency of ``origin``.
    adjacencies: tuple[tuple[int, int], ...]

    @property
    def size_bytes(self) -> int:
        return CONTROL_HEADER_BYTES + LSA_LINK_BYTES * len(self.adjacencies)


@dataclass(frozen=True)
class SpfConfig:
    """SPF throttling and fast-reroute options."""

    spf_delay: float = 0.0
    lfa: bool = False
    label: str = "spf"

    def __post_init__(self) -> None:
        if self.spf_delay < 0:
            raise ValueError("spf_delay must be >= 0")


class SpfProtocol(RoutingProtocol):
    """Link-state routing with flooding and (throttled) on-change Dijkstra."""

    name = "spf"

    def __init__(
        self,
        node: Node,
        rng_streams: RngStreams,
        config: Optional[SpfConfig] = None,
    ) -> None:
        self.config = config or SpfConfig()
        self.name = self.config.label
        super().__init__(node, rng_streams)
        self.database: dict[int, Lsa] = {}
        #: Each origin's adjacencies as a dict, and the order origins first
        #: entered the database in (the later one wins a cost dispute).
        self._listed: dict[int, dict[int, int]] = {}
        self._rank: dict[int, int] = {}
        #: The two-way-checked topology view, kept in step with the database
        #: by ``_install``: an edge exists iff both ends list each other.
        self._view: dict[int, dict[int, int]] = {node.id: {}}
        #: Whether the view, or the FIB behind SPF's back, changed since the
        #: last Dijkstra; and the up neighbors the LFA backups were built for.
        self._stale = True
        self._lfa_neighbors: Optional[list[int]] = None
        self._seq = 0
        self._metrics: dict[int, int] = {}
        #: Precomputed loop-free alternate next hop per destination.
        self.backups: dict[int, int] = {}
        self._spf_timer = OneShotTimer(self.sim, self._recompute)
        #: Cause of the event that scheduled the pending recompute (a
        #: throttled SPF run fires from a timer, after the triggering
        #: message's cause scope has closed — so it is captured here).
        self._recompute_cause: Optional[tuple[str, Optional[int]]] = None
        self.recomputations = 0
        self.recomputes_skipped = 0
        self.lfa_activations = 0

    # --------------------------------------------------------------- lifecycle

    def start(self) -> None:
        self._originate()

    def warm_start(self, topology: Topology) -> None:
        # Converged database: one LSA per router, seq 1.
        for origin, nbrs in topology.adjacency().items():
            self._install(Lsa(origin=origin, seq=1, adjacencies=tuple(nbrs.items())))
        self._seq = 1
        self._recompute()

    # ------------------------------------------------------------------ events

    def handle_message(self, payload: Any, from_node: int) -> None:
        if not isinstance(payload, Lsa):
            raise TypeError(f"spf got unexpected payload {type(payload).__name__}")
        known = self.database.get(payload.origin)
        if known is not None and known.seq >= payload.seq:
            return  # duplicate or stale: stop the flood here
        self._install(payload)
        self._flood(payload, exclude=from_node)
        self._schedule_recompute()

    def handle_link_down(self, neighbor: int) -> None:
        if self.config.lfa:
            self._activate_backups(neighbor)
        self._originate()

    def handle_link_up(self, neighbor: int) -> None:
        self._originate()
        # Database sync on adjacency (re)establishment.
        for lsa in list(self.database.values()):
            self._send(neighbor, lsa)

    # -------------------------------------------------------------- mechanics

    def _activate_backups(self, dead_neighbor: int) -> None:
        """Fast reroute: swing every route using the dead neighbor onto its
        precomputed loop-free alternate, before SPF re-runs."""
        for dest, primary in list(self.node.fib.items()):
            if primary != dead_neighbor:
                continue
            backup = self.backups.get(dest)
            if backup is not None and backup != dead_neighbor:
                link = self.node.links.get(backup)
                if link is not None and link.up:
                    self.node.set_next_hop(dest, backup)
                    self.lfa_activations += 1
                    self._stale = True  # the next SPF run must resync the FIB

    def _originate(self) -> None:
        self._seq += 1
        adjacencies = tuple(
            (nbr, self.node.link_to(nbr).spec.cost) for nbr in self.node.up_neighbors()
        )
        lsa = Lsa(origin=self.node.id, seq=self._seq, adjacencies=adjacencies)
        self._install(lsa)
        self._flood(lsa)
        self._schedule_recompute()

    def _schedule_recompute(self) -> None:
        # Latest trigger wins; good enough for attribution of a batched run.
        self._recompute_cause = self.node.route_cause
        if self.config.spf_delay <= 0:
            self._recompute()
        elif not self._spf_timer.running:
            self._spf_timer.start(self.config.spf_delay)

    def _install(self, lsa: Lsa) -> None:
        """Write ``lsa`` into the database and re-derive the view's edge to
        every neighbor its old or its new listing names: the edge exists iff
        both ends list each other, and when they advertise different costs
        the origin that entered the database later wins."""
        origin, listed, view = lsa.origin, self._listed, self._view
        old = listed.get(origin, _NO_LINKS)
        mine = listed[origin] = dict(lsa.adjacencies)
        rank = self._rank.setdefault(origin, len(self._rank))
        self.database[origin] = lsa
        for nbr in old.keys() | mine.keys():
            theirs = listed.get(nbr, _NO_LINKS)
            cost: Optional[int] = None
            if nbr in mine and origin in theirs:
                cost = mine[nbr] if rank > self._rank[nbr] else theirs[origin]
            if view.get(origin, _NO_LINKS).get(nbr) == cost:
                continue
            self._stale = True
            if cost is not None:
                view.setdefault(origin, {})[nbr] = cost
                view.setdefault(nbr, {})[origin] = cost
                continue
            for x, y in ((origin, nbr), (nbr, origin)):
                del view[x][y]
                if not view[x] and x != self.node.id:
                    del view[x]

    def _recompute(self) -> None:
        """Dijkstra over the two-way view; sync the FIB (and LFA backups)."""
        cause = self._recompute_cause or ("spf_recompute", None)
        self._recompute_cause = None
        with self.route_cause(*cause):
            self._recompute_inner()

    def _recompute_inner(self) -> None:
        self.recomputations += 1
        # Dijkstra's output depends only on the view's content, so over an
        # unchanged view (and a FIB nobody else touched) the sync below is a
        # no-op.  LFA backups also read which local links are up, and a link
        # goes down or comes back before its detection reaches us.
        up = self.node.up_neighbors() if self.config.lfa else None
        if not self._stale and up == self._lfa_neighbors:
            self.recomputes_skipped += 1
            return
        self._stale = False
        self._lfa_neighbors = up
        adj = self._view
        paths, new_metrics = shortest_path_tree(adj, self.node.id)
        del new_metrics[self.node.id]
        for dest in new_metrics:
            self.node.set_next_hop(dest, paths[dest][1])
        for dest in set(self._metrics) - set(new_metrics):
            self.node.set_next_hop(dest, None)
        self._metrics = new_metrics
        if up is not None:
            self._compute_backups(adj, new_metrics, up)

    def _compute_backups(
        self, adj: Adjacency, metrics: dict[int, int], up_neighbors: list[int]
    ) -> None:
        """Precompute one loop-free alternate per destination, if any.

        LFA condition (RFC 5286 basic): a neighbor n protects s's route to d
        iff dist(n, d) < dist(n, s) + dist(s, d).
        """
        self.backups.clear()
        neighbor_dist: dict[int, dict[int, int]] = {}
        for nbr in up_neighbors:
            if nbr in adj:
                neighbor_dist[nbr] = shortest_path_tree(adj, nbr)[1]
        for dest, dist_sd in metrics.items():
            primary = self.node.next_hop(dest)
            best: Optional[tuple[int, int]] = None
            for nbr, dists in neighbor_dist.items():
                if nbr == primary or dest not in dists:
                    continue
                dist_nd = dists[dest]
                dist_ns = dists.get(self.node.id)
                if dist_ns is None:
                    continue
                if dist_nd < dist_ns + dist_sd:
                    candidate = (dist_nd, nbr)
                    if best is None or candidate < best:
                        best = candidate
            if best is not None:
                self.backups[dest] = best[1]

    def route_metric(self, dest: int) -> Optional[int]:
        if dest == self.node.id:
            return 0
        return self._metrics.get(dest)
