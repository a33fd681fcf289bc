"""Topology model.

A :class:`Topology` is an undirected multigraph-free graph of integer node
ids with per-link attributes (cost, propagation delay, bandwidth).  It is a
pure description — the network substrate (:mod:`repro.net`) instantiates the
live simulation objects from it, and every path query (warm starts, the
validation oracle, the link-state protocols) runs one kernel,
:func:`shortest_path_tree`, over a plain ``{node: {neighbor: cost}}`` mapping.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, TypeVar

from ..sim import units

__all__ = [
    "Adjacency",
    "LinkSpec",
    "Topology",
    "shortest_path_tree",
    "without_links",
    "is_connected",
    "per_topology",
    "all_shortest_path_trees",
    "all_shortest_path_costs",
    "destination_path_trees",
    "merge",
]

#: ``{node: {neighbor: cost}}`` with every link written in both directions.
Adjacency = Mapping[int, Mapping[int, int]]
_T = TypeVar("_T")


@dataclass(frozen=True)
class LinkSpec:
    """A bidirectional link between two nodes.

    Defaults match the paper's simulation setup: unit cost, 1 ms propagation
    delay, 1 Mbps transmission rate.
    """

    a: int
    b: int
    cost: int = 1
    delay: float = 1 * units.MILLISECONDS
    bandwidth: float = 1 * units.MEGABITS

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError(f"self-loop on node {self.a}")
        if self.cost <= 0:
            raise ValueError(f"link cost must be positive, got {self.cost}")
        if self.delay < 0:
            raise ValueError(f"delay must be non-negative, got {self.delay}")
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")

    @property
    def endpoints(self) -> tuple[int, int]:
        """Canonical (min, max) endpoint pair."""
        return (self.a, self.b) if self.a < self.b else (self.b, self.a)


@dataclass
class _Index:
    """What a :class:`Topology` derives from its nodes and links."""

    stamp: tuple[int, int]
    adj: dict[int, dict[int, int]]
    #: :func:`destination_path_trees` results, per destination.
    dest_trees: dict[int, dict[int, list[int]]] = field(default_factory=dict)
    #: This topology's :func:`per_topology` results, once looked up.
    memo: Optional[dict] = None


@dataclass
class Topology:
    """Named collection of nodes and links."""

    name: str = "topology"
    nodes: set[int] = field(default_factory=set)
    links: dict[tuple[int, int], LinkSpec] = field(default_factory=dict)
    #: Optional (row, col) positions for mesh topologies (rendering/tests).
    positions: dict[int, tuple[int, int]] = field(default_factory=dict)
    _index: Optional[_Index] = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        # Derived state: pool children and shard workers rebuild what they use.
        return {**self.__dict__, "_index": None}

    def add_node(self, node: int, position: Optional[tuple[int, int]] = None) -> None:
        self.nodes.add(node)
        if position is not None:
            self.positions[node] = position

    def add_link(self, spec: LinkSpec) -> None:
        """Add a link; endpoints are auto-added as nodes."""
        key = spec.endpoints
        if key in self.links:
            raise ValueError(f"duplicate link {key} in {self.name}")
        self.links[key] = spec
        self.nodes.add(spec.a)
        self.nodes.add(spec.b)

    def connect(self, a: int, b: int, **attrs) -> LinkSpec:
        """Convenience: create and add a :class:`LinkSpec`."""
        spec = LinkSpec(a, b, **attrs)
        self.add_link(spec)
        return spec

    def has_link(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.links

    def link(self, a: int, b: int) -> LinkSpec:
        return self.links[(min(a, b), max(a, b))]

    def _indexed(self) -> _Index:
        # ``nodes`` and ``links`` are public and tests edit them directly, so
        # staleness is detected on access: a change in either count rebuilds.
        stamp = (len(self.links), len(self.nodes))
        index = self._index
        if index is None or index.stamp != stamp:
            adj: dict[int, dict[int, int]] = {node: {} for node in sorted(self.nodes)}
            # Canonical keys are (low, high): one sorted pass fills every
            # node's lower neighbors, then its higher ones, both ascending.
            for a, b in sorted(self.links):
                cost = self.links[a, b].cost
                adj.setdefault(a, {})[b] = cost
                adj.setdefault(b, {})[a] = cost
            index = self._index = _Index(stamp, adj)
        return index

    def adjacency(self) -> dict[int, dict[int, int]]:
        """``{node: {neighbor: cost}}``, nodes and neighbors in sorted order.

        Built on first use and shared by every query below; callers must not
        mutate it (:func:`without_links` makes an edited copy).
        """
        return self._indexed().adj

    def neighbors(self, node: int) -> Iterator[int]:
        """Neighbors of ``node`` in deterministic (sorted) order."""
        return iter(self.adjacency().get(node, ()))

    def degree(self, node: int) -> int:
        return len(self.adjacency().get(node, ()))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_links(self) -> int:
        return len(self.links)

    def to_networkx(self):
        """Weighted ``networkx.Graph`` view (``weight`` = link cost), for
        export and oracle tests; no run path calls it or loads the library."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(sorted(self.nodes))
        for (a, b), spec in self.links.items():
            graph.add_edge(a, b, weight=spec.cost, delay=spec.delay)
        return graph

    def shortest_path(
        self, src: int, dst: int, exclude_link: Optional[tuple[int, int]] = None
    ) -> Optional[list[int]]:
        """Min-cost path (ties broken deterministically), or None if disconnected.

        ``exclude_link`` removes one link first — used to compute the
        post-failure path the network should converge to.
        """
        adj = self.adjacency()
        if exclude_link is not None:
            adj = without_links(adj, [exclude_link])
        return shortest_path_tree(adj, src)[0].get(dst)

    def is_connected(self) -> bool:
        return is_connected(self.adjacency())

    def copy(self, name: Optional[str] = None) -> "Topology":
        return Topology(
            name=name or self.name,
            nodes=set(self.nodes),
            links=dict(self.links),
            positions=dict(self.positions),
        )


def shortest_path_tree(
    adj: Adjacency, src: int
) -> tuple[dict[int, list[int]], dict[int, int]]:
    """Deterministic shortest paths from ``src``: ``(paths, costs)``, both
    keyed by every reachable node (``src`` included, unreachable ones absent).

    Dijkstra with (cost, hop count, lexicographic node sequence) tie-breaking.
    The protocols in this package break cost ties by lowest neighbor id, which
    for unit-cost graphs yields exactly the lexicographic-minimum shortest
    path — so analysis and warm-start code predict the same winner the
    protocols converge to.  The order neighbors are listed in does not
    matter: every heap entry is distinct, so pop order is fixed by content.

    Callers install routes in ``paths`` order, which is the iteration order
    of the visited *set* filled in pop order; recorded runs pin it.
    """
    dist: dict[int, tuple] = {src: (0, 0, ())}
    heap: list[tuple] = [(0, 0, (), src)]
    visited: set[int] = set()
    while heap:
        cost, hops, key, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        for nbr, w in adj[node].items():
            if nbr in visited:
                continue
            cand = (cost + w, hops + 1, key + (nbr,))
            if nbr not in dist or cand < dist[nbr]:
                dist[nbr] = cand
                heapq.heappush(heap, (*cand, nbr))
    paths: dict[int, list[int]] = {}
    costs: dict[int, int] = {}
    for node in visited:
        costs[node], _, key = dist[node]
        paths[node] = [src, *key]  # the tie-break key is the path itself
    return paths, costs


def without_links(
    adj: Adjacency, links: Iterable[tuple[int, int]]
) -> dict[int, Mapping[int, int]]:
    """Copy of ``adj`` minus ``links`` (absent ones ignored); shares the
    neighbor maps it did not have to edit."""
    out = dict(adj)
    for a, b in links:
        if b in out.get(a, ()):
            for x, y in ((a, b), (b, a)):
                out[x] = {nbr: cost for nbr, cost in out[x].items() if nbr != y}
    return out


def is_connected(adj: Adjacency) -> bool:
    """Whether every node of ``adj`` is reachable from every other."""
    return not adj or len(shortest_path_tree(adj, next(iter(adj)))[1]) == len(adj)


#: Layouts the memo keeps: one per mesh degree of the paper's 3…8 sweep.
_MEMO_LAYOUTS = 6

#: Adjacency key → that layout's :func:`per_topology` results, least
#: recently looked up first.
_MEMO: dict[tuple, dict] = {}


def per_topology(compute: Callable[[Topology], _T]) -> Callable[[Topology], _T]:
    """Memoize ``compute(topo)`` across every :class:`Topology` with the same
    nodes, links and costs: whole-network precomputation a warm start would
    otherwise repeat per router and per scenario.

    The key is the whole adjacency, the flow hosts a layout attaches
    included, so the memo is per *layout*: a sweep runs every protocol over
    the same (degree, seed) layouts and hits it, while a run of fresh
    layouts never does.  It keeps the ``_MEMO_LAYOUTS`` most recently looked-up
    layouts and drops the oldest beyond that; a topology keeps its own
    entry on its index, so a run's routers share one table however the
    memo moves, and an evicted table goes with the last topology holding
    it.  Results are shared; treat them as read-only."""

    def memoized(topo: Topology) -> _T:
        index = topo._indexed()
        if index.memo is None:
            key = tuple((node, tuple(nbrs.items())) for node, nbrs in index.adj.items())
            memo = _MEMO.pop(key, None)
            index.memo = _MEMO[key] = {} if memo is None else memo
            if len(_MEMO) > _MEMO_LAYOUTS:
                del _MEMO[next(iter(_MEMO))]
        if compute not in index.memo:
            index.memo[compute] = compute(topo)
        return index.memo[compute]

    return memoized


@per_topology
def _all_pairs(topo: Topology) -> tuple[dict, dict]:
    adj = topo.adjacency()
    trees, costs = {}, {}
    for src in adj:
        trees[src], costs[src] = shortest_path_tree(adj, src)
    return trees, costs


def all_shortest_path_trees(topo: Topology) -> dict[int, dict[int, list[int]]]:
    """Deterministic shortest-path trees from every node, ``{src: {dst: path}}``,
    memoized (warm starts of all 49 routers share one computation)."""
    return _all_pairs(topo)[0]


def all_shortest_path_costs(topo: Topology) -> dict[int, dict[int, int]]:
    """Cost of every path in :func:`all_shortest_path_trees`, same memo."""
    return _all_pairs(topo)[1]


def destination_path_trees(
    topo: Topology, dests: Iterable[int]
) -> dict[int, dict[int, list[int]]]:
    """Deterministic shortest paths *toward* each destination.

    Returns ``{dest: {node: [node, ..., dest]}}`` — the tree rooted at the
    destination, with each path reversed to run from the node to the root.
    One Dijkstra per destination network-wide (instead of one per node as in
    :func:`all_shortest_path_trees`), which is what makes a 10k-node warm
    start restricted to a few traffic destinations affordable; the trees are
    kept on the topology's index, so every router of that warm start shares
    them and they go when the topology does.

    Tie-breaking is the destination-rooted lexicographic minimum, so a path
    may legitimately differ from the source-rooted tree's choice for the
    same pair; within one call the result is prefix-closed and loop-free,
    which is all a restricted warm start needs.
    """
    index = topo._indexed()
    out: dict[int, dict[int, list[int]]] = {}
    for dest in sorted(set(dests)):
        tree = index.dest_trees.get(dest)
        if tree is None:
            rooted, _ = shortest_path_tree(index.adj, dest)
            tree = index.dest_trees[dest] = {
                node: path[::-1] for node, path in rooted.items()
            }
        out[dest] = tree
    return out


def merge(name: str, parts: Iterable[Topology]) -> Topology:
    """Union of disjoint topologies (helper for multi-domain experiments)."""
    out = Topology(name=name)
    for part in parts:
        for node in part.nodes:
            out.add_node(node, part.positions.get(node))
        for spec in part.links.values():
            out.add_link(spec)
    return out
