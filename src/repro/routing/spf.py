"""SPF — a minimal link-state protocol (the paper's future-work extension).

The paper's §6 proposes extending the comparison to link-state routing; this
module provides that extension.  Each router originates a Link State
Advertisement (LSA) describing its live adjacencies, floods LSAs with
sequence-number-based duplicate suppression, and recomputes shortest paths
(deterministic Dijkstra, same tie-break as the other protocols) whenever its
link-state database changes.

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
        self.lfa_activations = 0

    # --------------------------------------------------------------- lifecycle

    def start(self) -> None:
        self._originate()

    def warm_start(self, topology: Topology) -> None:
        # Converged database: one LSA per router, seq 1.
        for origin, nbrs in topology.adjacency().items():
            self.database[origin] = Lsa(
                origin=origin, seq=1, adjacencies=tuple(nbrs.items())
            )
        self._seq = 1
        self._recompute()

    # ------------------------------------------------------------------ events

    def handle_message(self, payload: Any, from_node: int) -> None:
        if not isinstance(payload, Lsa):
            raise TypeError(f"spf got unexpected payload {type(payload).__name__}")
        known = self.database.get(payload.origin)
        if known is not None and known.seq >= payload.seq:
            return  # duplicate or stale: stop the flood here
        self.database[payload.origin] = payload
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
            self._send_lsa(neighbor, lsa)

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

    def _originate(self) -> None:
        self._seq += 1
        adjacencies = tuple(
            (nbr, self.node.link_to(nbr).spec.cost) for nbr in self.node.up_neighbors()
        )
        lsa = Lsa(origin=self.node.id, seq=self._seq, adjacencies=adjacencies)
        self.database[self.node.id] = lsa
        self._flood(lsa, exclude=None)
        self._schedule_recompute()

    def _flood(self, lsa: Lsa, exclude: Optional[int]) -> None:
        for nbr in self.node.up_neighbors():
            if nbr != exclude:
                self._send_lsa(nbr, lsa)

    def _send_lsa(self, neighbor: int, lsa: Lsa) -> None:
        self.node.send_control(neighbor, lsa, lsa.size_bytes, protocol=self.name)
        self._record_message(neighbor, 1, size_bytes=lsa.size_bytes)

    def _schedule_recompute(self) -> None:
        # Latest trigger wins; good enough for attribution of a batched run.
        self._recompute_cause = self.node.route_cause
        if self.config.spf_delay <= 0:
            self._recompute()
        elif not self._spf_timer.running:
            self._spf_timer.start(self.config.spf_delay)

    def _adjacency(self) -> dict[int, dict[int, int]]:
        """Two-way-checked topology view from the database."""
        adj: dict[int, dict[int, int]] = {self.node.id: {}}
        listed = {origin: dict(lsa.adjacencies) for origin, lsa in self.database.items()}
        for origin, nbrs in listed.items():
            for nbr, cost in nbrs.items():
                if origin in listed.get(nbr, ()):
                    # Both directions on every add: when the two ends
                    # advertise different costs, the later LSA's wins.
                    adj.setdefault(origin, {})[nbr] = cost
                    adj.setdefault(nbr, {})[origin] = cost
        return adj

    def _recompute(self) -> None:
        """Dijkstra over the database; sync the FIB (and LFA backups)."""
        cause = self._recompute_cause or ("spf_recompute", None)
        self._recompute_cause = None
        with self.route_cause(*cause):
            self._recompute_inner()

    def _recompute_inner(self) -> None:
        self.recomputations += 1
        adj = self._adjacency()
        paths, new_metrics = shortest_path_tree(adj, self.node.id)
        del new_metrics[self.node.id]
        for dest in new_metrics:
            self.node.set_next_hop(dest, paths[dest][1])
        for dest in set(self._metrics) - set(new_metrics):
            self.node.set_next_hop(dest, None)
        self._metrics = new_metrics
        if self.config.lfa:
            self._compute_backups(adj, new_metrics)

    def _compute_backups(self, adj: Adjacency, metrics: dict[int, int]) -> None:
        """Precompute one loop-free alternate per destination, if any.

        LFA condition (RFC 5286 basic): a neighbor n protects s's route to d
        iff dist(n, d) < dist(n, s) + dist(s, d).
        """
        self.backups.clear()
        neighbor_dist: dict[int, dict[int, int]] = {}
        for nbr in self.node.up_neighbors():
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
