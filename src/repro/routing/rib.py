"""Routing information base structures shared by the protocols.

* :class:`DistanceVectorRoute` — one RIP/DBF table entry (metric + next hop +
  liveness timestamps).
* :class:`NeighborVectorCache` — DBF's per-neighbor cache of advertised
  distances (the "alternate path information" the paper identifies as the
  decisive design factor).
* :class:`PathAttr` — one BGP path (tuple of node ids ending at the
  destination) with helpers for loop checks and preference comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..net.link import Link

__all__ = [
    "RIP_INFINITY",
    "DistanceVectorRoute",
    "NeighborVectorCache",
    "PathAttr",
    "best_vector_choice",
]

#: RFC 2453 infinity metric.
RIP_INFINITY = 16

#: The (read-only) vector of a neighbor never heard from.
_NO_VECTOR: dict[int, int] = {}


@dataclass
class DistanceVectorRoute:
    """One entry of a RIP/DBF routing table."""

    dest: int
    metric: int
    next_hop: Optional[int]
    #: Simulation time of the last refreshing update (drives the 180 s timeout).
    updated_at: float = 0.0


class NeighborVectorCache:
    """Latest distance vector heard from each neighbor.

    Values are the *advertised* metrics (after the sender applied split
    horizon with poison reverse), so entries can be the infinity metric.
    """

    def __init__(self, infinity: int = RIP_INFINITY) -> None:
        self.infinity = infinity
        self._vectors: dict[int, dict[int, int]] = {}

    def learn(self, neighbor: int, dest: int, metric: int) -> None:
        """Record neighbor's advertised metric for dest."""
        self._vectors.setdefault(neighbor, {})[dest] = min(metric, self.infinity)

    def advertised(self, neighbor: int, dest: int) -> int:
        """Metric neighbor last advertised for dest (infinity if never)."""
        return self._vectors.get(neighbor, _NO_VECTOR).get(dest, self.infinity)

    def forget_neighbor(self, neighbor: int) -> None:
        """Drop the whole vector (the link to this neighbor died)."""
        self._vectors.pop(neighbor, None)


def best_vector_choice(
    cache: NeighborVectorCache,
    dest: int,
    links: Iterable[tuple[int, Link]],
    infinity: int = RIP_INFINITY,
) -> tuple[int, Optional[int]]:
    """Bellman-Ford selection over a neighbor cache.

    Returns ``(metric, next_hop)`` minimizing advertised metric + link cost,
    ties broken by lowest neighbor id; ``(infinity, None)`` if nothing usable.
    ``links`` is ``(neighbor, link)`` pairs in ascending neighbor order.  A
    link's ``up`` and cost are read here, live: a link that is down but not
    yet detected down is already skipped.
    """
    vectors, unknown = cache._vectors, cache.infinity  # cache.advertised, inlined
    best_metric = infinity
    best_nbr: Optional[int] = None
    for nbr, link in links:
        if not link.up:
            continue
        metric = vectors.get(nbr, _NO_VECTOR).get(dest, unknown) + link.spec.cost
        if metric < best_metric:
            best_metric = metric
            best_nbr = nbr
    if best_metric >= infinity:
        return infinity, None
    return best_metric, best_nbr


@dataclass(frozen=True, slots=True)
class PathAttr:
    """A BGP path: sequence of node ids from the advertising neighbor to the
    destination (inclusive on both ends)."""

    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("empty path")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"path {self.nodes} repeats a node")

    @classmethod
    def of(cls, nodes: Iterable[int]) -> "PathAttr":
        return cls(tuple(nodes))

    @property
    def dest(self) -> int:
        return self.nodes[-1]

    @property
    def first_hop(self) -> int:
        return self.nodes[0]

    def __len__(self) -> int:
        return len(self.nodes)

    def contains(self, node: int) -> bool:
        return node in self.nodes

    def prepend(self, node: int) -> "PathAttr":
        """The path as re-advertised by ``node``.  The tail is already
        repeat-free, so only the new head is checked."""
        if node in self.nodes:
            raise ValueError(f"path {self.nodes} already contains {node}")
        path = object.__new__(PathAttr)
        object.__setattr__(path, "nodes", (node,) + self.nodes)
        return path

    def preference_key(self) -> tuple[int, int]:
        """Sort key: shorter path first, then lowest first hop (the paper's
        shortest-path routing policy with deterministic tie-break)."""
        return (len(self.nodes), self.nodes[0])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "Path[" + "-".join(map(str, self.nodes)) + "]"
