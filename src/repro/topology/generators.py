"""Auxiliary topology generators.

The paper's sweeps all use :func:`repro.topology.mesh.regular_mesh`; these
generators support unit tests, examples and extension experiments (random
regular graphs let us check that the mesh results are not an artifact of the
lattice structure).
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Optional

from ..sim import units
from ..sim.rng import RngStreams
from .graph import LinkSpec, Topology

__all__ = [
    "line",
    "ring",
    "star",
    "complete",
    "random_regular",
    "scale_free",
    "waxman",
    "attach_host",
    "from_networkx",
]


def _standard_link(a: int, b: int, **attrs) -> LinkSpec:
    defaults = dict(cost=1, delay=1 * units.MILLISECONDS, bandwidth=1 * units.MEGABITS)
    defaults.update(attrs)
    return LinkSpec(a, b, **defaults)


def line(n: int, **attrs) -> Topology:
    """Path graph 0-1-...-(n-1)."""
    if n < 2:
        raise ValueError(f"line needs >= 2 nodes, got {n}")
    topo = Topology(name=f"line-{n}")
    for i in range(n - 1):
        topo.add_link(_standard_link(i, i + 1, **attrs))
    return topo


def ring(n: int, **attrs) -> Topology:
    """Cycle graph on n nodes."""
    if n < 3:
        raise ValueError(f"ring needs >= 3 nodes, got {n}")
    topo = Topology(name=f"ring-{n}")
    for i in range(n):
        topo.add_link(_standard_link(i, (i + 1) % n, **attrs))
    return topo


def star(n_leaves: int, **attrs) -> Topology:
    """Hub node 0 connected to leaves 1..n."""
    if n_leaves < 1:
        raise ValueError(f"star needs >= 1 leaf, got {n_leaves}")
    topo = Topology(name=f"star-{n_leaves}")
    for i in range(1, n_leaves + 1):
        topo.add_link(_standard_link(0, i, **attrs))
    return topo


def complete(n: int, **attrs) -> Topology:
    """Complete graph on n nodes."""
    if n < 2:
        raise ValueError(f"complete needs >= 2 nodes, got {n}")
    topo = Topology(name=f"complete-{n}")
    for i in range(n):
        for j in range(i + 1, n):
            topo.add_link(_standard_link(i, j, **attrs))
    return topo


def random_regular(
    n: int, degree: int, seed: int, rng: Optional[random.Random] = None, **attrs
) -> Topology:
    """Connected random ``degree``-regular graph (retries seeds until connected)."""
    if n * degree % 2 != 0:
        raise ValueError(f"n*degree must be even, got n={n} degree={degree}")
    if degree >= n:
        raise ValueError(f"degree must be < n, got degree={degree} n={n}")
    import networkx as nx

    attempt_seed = seed
    for _ in range(100):
        graph = nx.random_regular_graph(degree, n, seed=attempt_seed)
        if nx.is_connected(graph):
            topo = from_networkx(graph, name=f"rr-{n}-d{degree}-s{seed}", **attrs)
            return topo
        attempt_seed += 1
    raise RuntimeError(f"no connected {degree}-regular graph found from seed {seed}")


def scale_free(
    n: int,
    m: int = 2,
    seed: int = 1,
    exponent: float = 1.0,
    **attrs,
) -> Topology:
    """Preferential-attachment scale-free graph (AS-graph stand-in).

    Grows from an ``m+1``-node star: each new node attaches ``m`` links to
    distinct existing nodes chosen with probability proportional to
    ``degree ** exponent`` (1.0 = classic Barabási–Albert; larger exponents
    thicken the hubs).  Connected by construction, and all randomness comes
    from one :class:`RngStreams` stream, so the same ``(n, m, seed,
    exponent)`` reproduces the same graph in any process.

    The ``exponent != 1`` path recomputes attachment weights per joining
    node (O(n^2) total) — fine for test-sized graphs; the 10k-node sharded
    scenarios use the linear classic path.
    """
    if m < 1:
        raise ValueError(f"scale_free needs m >= 1, got {m}")
    if n < m + 2:
        raise ValueError(f"scale_free needs n >= m+2, got n={n} m={m}")
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    rng = RngStreams(seed).stream(f"scale-free-m{m}-x{exponent}")
    topo = Topology(name=f"sf-{n}-m{m}-s{seed}")
    for i in range(1, m + 1):
        topo.add_link(_standard_link(0, i, **attrs))
    if exponent == 1.0:
        # Classic linear preferential attachment: sample from a list where
        # each node appears once per unit of degree.
        targets = [0] * m + list(range(1, m + 1))
        for new in range(m + 1, n):
            chosen: set[int] = set()
            while len(chosen) < m:
                chosen.add(targets[rng.randrange(len(targets))])
            for t in sorted(chosen):
                topo.add_link(_standard_link(t, new, **attrs))
                targets.append(t)
            targets.extend([new] * m)
    else:
        degree = {i: 1 for i in range(1, m + 1)}
        degree[0] = m
        nodes = sorted(degree)
        for new in range(m + 1, n):
            cum = list(itertools.accumulate(degree[v] ** exponent for v in nodes))
            chosen = set()
            while len(chosen) < m:
                idx = bisect.bisect_right(cum, rng.random() * cum[-1])
                chosen.add(nodes[min(idx, len(nodes) - 1)])
            for t in sorted(chosen):
                topo.add_link(_standard_link(t, new, **attrs))
                degree[t] += 1
            degree[new] = m
            nodes.append(new)
    return topo


def waxman(
    n: int,
    seed: int,
    alpha: float = 0.5,
    beta: float = 0.25,
    **attrs,
) -> Topology:
    """Connected Waxman random graph (the classic network-simulation model).

    Retries seeds until the sampled graph is connected; link probability
    decays with Euclidean distance (``alpha`` scales density, ``beta`` the
    decay length).
    """
    if n < 2:
        raise ValueError(f"waxman needs >= 2 nodes, got {n}")
    import networkx as nx

    attempt = seed
    for _ in range(100):
        graph = nx.waxman_graph(n, alpha=alpha, beta=beta, seed=attempt)
        if nx.is_connected(graph):
            return from_networkx(graph, name=f"waxman-{n}-s{seed}", **attrs)
        attempt += 1
    raise RuntimeError(f"no connected Waxman graph found from seed {seed}")


def from_networkx(graph, name: str = "imported", **attrs) -> Topology:
    """Convert an undirected ``networkx.Graph`` of integer nodes."""
    topo = Topology(name=name)
    for node in graph.nodes:
        topo.add_node(int(node))
    for a, b in graph.edges:
        topo.add_link(_standard_link(int(a), int(b), **attrs))
    return topo


def attach_host(topo: Topology, router: int, host: Optional[int] = None, **attrs) -> int:
    """Attach a stub host (degree-1 node) to ``router`` via an access link.

    Returns the host's node id (``max(nodes) + 1`` when not given).  The paper
    attaches the sender and receiver this way to routers on the first and last
    mesh rows.
    """
    if router not in topo.nodes:
        raise ValueError(f"router {router} not in topology {topo.name}")
    if host is None:
        host = max(topo.nodes) + 1
    if host in topo.nodes:
        raise ValueError(f"host id {host} already used")
    topo.add_link(_standard_link(router, host, **attrs))
    return host
