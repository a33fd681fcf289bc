"""DUAL — loop-free distance vector via diffusing computations.

The paper's §2/§6 discuss Garcia-Luna-Aceves' DUAL ([6]) as the archetype of
the opposite design philosophy: it *guarantees* loop freedom by running a
diffusing computation before ever switching to a longer path — "the routing
table is frozen and the affected destinations are unreachable until the
diffusion process completes."  The paper argues this buys loop freedom at
the cost of packet delivery during convergence; this implementation makes
that trade-off measurable inside the same harness.

Implemented semantics (EIGRP-style, simplified where noted):

* per-destination state: neighbor distance table, successor, current
  distance, and **feasible distance** (FD) — the lowest distance ever
  attained since the last diffusion for that destination;
* **feasibility condition** (source node condition): neighbor ``n`` may
  become successor only if its advertised distance is strictly below FD —
  this is what provably prevents loops;
* a change that leaves some feasible successor is handled by a **local
  computation** (instant switch, like DBF);
* a change that leaves none triggers a **diffusing computation**: QUERY to
  every up neighbor, route frozen (unreachable if the old successor's link
  died — the failure case the paper discusses), REPLYs awaited, then a
  fresh selection with FD reset;
* a node queried by its own successor that lacks a feasible successor joins
  the diffusion and defers its REPLY until its own diffusion completes;
* messages ride reliable channels (EIGRP's RTP role), so no periodic
  refresh is needed.

Simplifications: one outstanding diffusion per destination (inputs arriving
while active update the distance table and are folded in at completion);
no stuck-in-active timer.  Both are invisible to single-failure experiments
and noted here for honesty.

Like EIGRP (and RIP), DUAL needs a **maximum distance** to resolve
partitions: two nodes cut off from a destination otherwise ratchet each
other's distance upward through alternating diffusions.  Distances at or
above ``max_distance`` are treated as unreachable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

from ..net.network import Network
from ..net.node import Node
from ..net.packet import CONTROL_HEADER_BYTES
from ..sim.rng import RngStreams
from ..topology.graph import Topology, all_shortest_path_costs, all_shortest_path_trees
from .base import SessionProtocol

__all__ = ["DualUpdate", "DualQuery", "DualReply", "DualProtocol"]

INFINITY = math.inf

#: Bytes per (destination, distance) entry in a DUAL message.
DUAL_ENTRY_BYTES = 12


@dataclass(frozen=True)
class DualUpdate:
    """Distance advertisement: (dest, distance) pairs."""

    routes: tuple[tuple[int, float], ...]

    @property
    def size_bytes(self) -> int:
        return CONTROL_HEADER_BYTES + DUAL_ENTRY_BYTES * len(self.routes)


@dataclass(frozen=True)
class DualQuery:
    """Diffusing-computation query: the sender's (frozen) distances."""

    routes: tuple[tuple[int, float], ...]

    @property
    def size_bytes(self) -> int:
        return CONTROL_HEADER_BYTES + DUAL_ENTRY_BYTES * len(self.routes)


@dataclass(frozen=True)
class DualReply:
    """Reply to a query: the sender's distances after its own processing."""

    routes: tuple[tuple[int, float], ...]

    @property
    def size_bytes(self) -> int:
        return CONTROL_HEADER_BYTES + DUAL_ENTRY_BYTES * len(self.routes)


_MESSAGE_CLASSES = {"update": DualUpdate, "query": DualQuery, "reply": DualReply}


class _DestState:
    """Per-destination DUAL state at one router."""

    __slots__ = (
        "successor",
        "distance",
        "feasible_distance",
        "active",
        "pending_replies",
        "deferred_reply_to",
    )

    def __init__(self) -> None:
        self.successor: Optional[int] = None
        self.distance: float = INFINITY
        self.feasible_distance: float = INFINITY
        self.active = False
        self.pending_replies: set[int] = set()
        self.deferred_reply_to: Optional[int] = None


class DualProtocol(SessionProtocol):
    """Loop-free distance vector with diffusing computations."""

    name = "dual"

    def __init__(
        self,
        node: Node,
        rng_streams: RngStreams,
        network: Network,
        max_distance: float = 64.0,
    ) -> None:
        super().__init__(node, rng_streams, network)
        if max_distance <= 0:
            raise ValueError("max_distance must be positive")
        self.max_distance = max_distance
        #: neighbor -> dest -> advertised distance.
        self.neighbor_dist: dict[int, dict[int, float]] = {}
        self.states: dict[int, _DestState] = {}
        # Per-event outgoing batches: nbr -> {dest: dist} per message kind.
        self._batch: dict[str, dict[int, dict[int, float]]] = {
            "update": {},
            "query": {},
            "reply": {},
        }
        self.diffusions_started = 0

    # --------------------------------------------------------------- lifecycle

    def start(self) -> None:
        for nbr in self.node.up_neighbors():
            self._open_session(nbr)
        state = self._state(self.node.id)
        state.distance = 0.0
        state.feasible_distance = 0.0
        for nbr in self.node.up_neighbors():
            self._queue("update", nbr, self.node.id, 0.0)
        self._flush()

    def warm_start(self, topology: Topology) -> None:
        trees = all_shortest_path_trees(topology)
        costs = all_shortest_path_costs(topology)
        for nbr in self.node.up_neighbors():
            self._open_session(nbr)
            self.neighbor_dist[nbr] = {
                dest: float(cost) for dest, cost in costs[nbr].items()
            }
        my_tree = trees[self.node.id]
        for dest, path in my_tree.items():
            state = self._state(dest)
            if dest == self.node.id:
                state.distance = 0.0
                state.feasible_distance = 0.0
                continue
            state.distance = float(costs[self.node.id][dest])
            state.feasible_distance = state.distance
            state.successor = path[1]
            self.node.set_next_hop(dest, path[1])

    def _open_session(self, neighbor: int) -> bool:
        self.neighbor_dist.setdefault(neighbor, {})
        return super()._open_session(neighbor)

    def _state(self, dest: int) -> _DestState:
        state = self.states.get(dest)
        if state is None:
            state = _DestState()
            self.states[dest] = state
        return state

    # ------------------------------------------------------------------ events

    def handle_message(self, payload: Any, from_node: int) -> None:
        if from_node not in self._channels:
            return
        if isinstance(payload, DualUpdate):
            for dest, dist in payload.routes:
                self._on_update(dest, dist, from_node)
        elif isinstance(payload, DualQuery):
            for dest, dist in payload.routes:
                self._on_query(dest, dist, from_node)
        elif isinstance(payload, DualReply):
            for dest, dist in payload.routes:
                self._on_reply(dest, dist, from_node)
        else:
            raise TypeError(f"dual got unexpected payload {type(payload).__name__}")
        self._flush()

    def handle_link_down(self, neighbor: int) -> None:
        self._close_session(neighbor)
        self.neighbor_dist.pop(neighbor, None)
        for kind in self._batch.values():
            kind.pop(neighbor, None)
        for dest in sorted(self.states):
            state = self.states[dest]
            if state.active:
                # The dead neighbor can never reply now.
                state.pending_replies.discard(neighbor)
                if state.deferred_reply_to == neighbor:
                    state.deferred_reply_to = None
                self._maybe_complete(dest)
            elif state.successor == neighbor:
                self._reconsider(dest)
        self._flush()

    def handle_link_up(self, neighbor: int) -> None:
        self._open_session(neighbor)
        for dest, state in sorted(self.states.items()):
            if state.distance < INFINITY and not state.active:
                self._queue("update", neighbor, dest, state.distance)
        self._flush()

    # --------------------------------------------------------------- dual core

    def _on_update(self, dest: int, dist: float, from_node: int) -> None:
        if dest == self.node.id:
            return
        self.neighbor_dist[from_node][dest] = dist
        state = self._state(dest)
        if state.active:
            return  # folded in at diffusion completion
        if from_node == state.successor or self._would_improve(dest, state):
            self._reconsider(dest)

    def _on_query(self, dest: int, dist: float, from_node: int) -> None:
        if dest == self.node.id:
            # We are the destination: distance 0, always feasible.
            self._queue("reply", from_node, dest, 0.0)
            return
        self.neighbor_dist[from_node][dest] = dist
        state = self._state(dest)
        if state.active:
            # Simplification: answer with the frozen distance; our own
            # diffusion will advertise the final answer via UPDATE.
            self._queue("reply", from_node, dest, state.distance)
            return
        if from_node != state.successor:
            self._reconsider(dest)
            self._queue("reply", from_node, dest, state.distance)
            return
        # Query from our successor: we are affected.
        if self._local_computation(dest, state):
            self._queue("reply", from_node, dest, state.distance)
        else:
            self._start_diffusion(dest, state, deferred_reply_to=from_node)

    def _on_reply(self, dest: int, dist: float, from_node: int) -> None:
        if dest == self.node.id:
            return
        self.neighbor_dist[from_node][dest] = dist
        state = self._state(dest)
        if state.active:
            state.pending_replies.discard(from_node)
            self._maybe_complete(dest)

    # ----------------------------------------------------------- computations

    def _best(self, dest: int, below: float = INFINITY) -> Optional[tuple[float, int]]:
        """Minimum ``(distance via n, n)`` over the up neighbors whose
        advertised distance is strictly below ``below`` (the feasibility
        condition when ``below`` is FD).  Distances at or beyond
        ``max_distance`` count as unreachable (partition bound)."""
        best: Optional[tuple[float, int]] = None
        links, tables = self.node.links, self.neighbor_dist
        for nbr in self._channels:  # every session has a distance table
            advertised = tables[nbr].get(dest, INFINITY)
            if advertised >= below:
                continue
            link = links.get(nbr)
            if link is None or not link.up:
                continue
            via = advertised + link.spec.cost
            if via < self.max_distance and (best is None or (via, nbr) < best):
                best = (via, nbr)
        return best

    def _would_improve(self, dest: int, state: _DestState) -> bool:
        best = self._best(dest)
        return best is not None and best[0] < state.distance

    def _reconsider(self, dest: int) -> None:
        """Entry point for any passive-state input affecting ``dest``."""
        state = self._state(dest)
        if state.active:
            return
        if not self._local_computation(dest, state):
            self._start_diffusion(dest, state, deferred_reply_to=None)

    def _local_computation(self, dest: int, state: _DestState) -> bool:
        """Try to (re)select under the feasibility condition.  Returns False
        when a diffusing computation is required."""
        best = self._best(dest, below=state.feasible_distance)
        if best is None:
            # No feasible successor.  If we had no route anyway, nothing to
            # diffuse over — stay unreachable until someone advertises.
            if state.distance == INFINITY and state.successor is None:
                return True
            return False
        new_dist, new_succ = best
        old_dist = state.distance
        state.distance = new_dist
        state.feasible_distance = min(state.feasible_distance, new_dist)
        if new_succ != state.successor:
            state.successor = new_succ
            self.node.set_next_hop(dest, new_succ)
        if new_dist != old_dist:
            for nbr in self.node.up_neighbors():
                self._queue("update", nbr, dest, new_dist)
        return True

    def _start_diffusion(
        self, dest: int, state: _DestState, deferred_reply_to: Optional[int]
    ) -> None:
        self.diffusions_started += 1
        best = self._best(dest)
        state.distance = best[0] if best is not None else INFINITY
        state.active = True
        state.deferred_reply_to = deferred_reply_to
        # The route is frozen; if the old successor's link is gone the
        # destination is unreachable during the diffusion (the paper's §6
        # criticism, observable as NO_ROUTE drops).
        if state.successor is not None:
            link = self.node.links.get(state.successor)
            if link is None or not link.up:
                state.successor = None
                self.node.set_next_hop(dest, None)
        state.pending_replies = set(self._channels)
        for nbr in sorted(self._channels):
            self._queue("query", nbr, dest, state.distance)
        if not state.pending_replies:
            self._complete_diffusion(dest, state)

    def _maybe_complete(self, dest: int) -> None:
        state = self._state(dest)
        if state.active and not state.pending_replies:
            self._complete_diffusion(dest, state)

    def _complete_diffusion(self, dest: int, state: _DestState) -> None:
        state.active = False
        best = self._best(dest)
        if best is not None:
            state.distance, state.successor = best
            state.feasible_distance = state.distance
            self.node.set_next_hop(dest, state.successor)
        else:
            state.distance = INFINITY
            state.feasible_distance = INFINITY
            state.successor = None
            self.node.set_next_hop(dest, None)
        for nbr in self.node.up_neighbors():
            self._queue("update", nbr, dest, state.distance)
        if state.deferred_reply_to is not None:
            self._queue("reply", state.deferred_reply_to, dest, state.distance)
            state.deferred_reply_to = None

    # ------------------------------------------------------------------ output

    def _queue(self, kind: str, neighbor: int, dest: int, dist: float) -> None:
        if neighbor not in self._channels:
            return
        self._batch[kind].setdefault(neighbor, {})[dest] = dist

    def _flush(self) -> None:
        for kind, per_nbr in self._batch.items():
            if not per_nbr:
                continue
            message_class = _MESSAGE_CLASSES[kind]
            for nbr in sorted(per_nbr):
                routes = tuple(sorted(per_nbr[nbr].items()))
                if not routes:
                    continue
                message = message_class(routes=routes)
                self._send_reliable(nbr, message, len(routes), is_withdrawal=(kind == "query"))
            per_nbr.clear()

    # -------------------------------------------------------------- inspection

    def route_metric(self, dest: int) -> Optional[int]:
        if dest == self.node.id:
            return 0
        state = self.states.get(dest)
        if state is None or state.successor is None or state.distance == INFINITY:
            return None
        return int(state.distance)
