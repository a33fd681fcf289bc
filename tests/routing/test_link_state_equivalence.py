"""The link-state protocols do work per change and compute what the
per-message code did.

Each part compares the live protocol against a test-local oracle that is
the straightforward construction it replaced:

* SPF keeps its two-way view in step with the database and skips Dijkstra
  over an unchanged view; the oracle rebuilds the view from the whole
  database and runs Dijkstra at every trigger.
* OLSR derives its routing set and selects MPRs only when a HELLO, a TC, a
  link event or an aged-out TC changed an input; the oracle rebuilds the
  edge set, sweeps the whole TC table and re-selects MPRs on every message.
* DUAL takes one minimum per selection; the oracle builds and sorts the
  candidate list and reads its head.

The oracles are checked in lockstep under hypothesis-drawn message and link
scripts, and whole churn scenarios run both ways for spf, spf-lfa, spf-slow,
olsr and dual on all three mobility models: the results and the full
route-change streams must be identical.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.experiments import ChurnConfig, ExperimentConfig, run_churn_scenario
from repro.experiments import scenario as scenario_module
from repro.experiments.persistence import scenario_to_dict
from repro.net.network import Network
from repro.obs.flight import FlightRecorder
from repro.routing import catalog, olsr
from repro.routing.dual import DualProtocol
from repro.routing.olsr import OlsrHello, OlsrProtocol, OlsrTc
from repro.routing.spf import Lsa, SpfConfig, SpfProtocol
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.tracing import TraceBus
from repro.topology.graph import Topology, shortest_path_tree

from ..conftest import recorded, recording_network

INFINITY = math.inf
SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# ----------------------------------------------------------------- oracles


def oracle_view(database, me: int) -> dict[int, dict[int, int]]:
    """The two-way-checked view, rebuilt from the whole database."""
    adj: dict[int, dict[int, int]] = {me: {}}
    listed = {origin: dict(lsa.adjacencies) for origin, lsa in database.items()}
    for origin, nbrs in listed.items():
        for nbr, cost in nbrs.items():
            if origin in listed.get(nbr, ()):
                adj.setdefault(origin, {})[nbr] = cost
                adj.setdefault(nbr, {})[origin] = cost
    return adj


class OracleSpf(SpfProtocol):
    """Dijkstra over the rebuilt view at every trigger."""

    def _recompute_inner(self) -> None:
        self.recomputations += 1
        adj = oracle_view(self.database, self.node.id)
        paths, new_metrics = shortest_path_tree(adj, self.node.id)
        del new_metrics[self.node.id]
        for dest in new_metrics:
            self.node.set_next_hop(dest, paths[dest][1])
        for dest in set(self._metrics) - set(new_metrics):
            self.node.set_next_hop(dest, None)
        self._metrics = new_metrics
        if self.config.lfa:
            self._compute_backups(adj, new_metrics, self.node.up_neighbors())


class OracleOlsr(OlsrProtocol):
    """Every HELLO rewrites its sender's entry and re-selects MPRs; every
    recompute sweeps the whole TC table and rebuilds the edge set."""

    def _handle_hello(self, hello: OlsrHello, from_node: int) -> None:
        link = self.node.links.get(from_node)
        if link is None or not link.up:
            return
        me = self.node.id
        self._nbr[from_node] = "sym" if me in dict(hello.neighbors) else "heard"
        self._two_hop[from_node] = {
            n for n, status in hello.neighbors if status == "sym" and n != me
        }
        if me in hello.mprs:
            self.mpr_selectors.add(from_node)
        else:
            self.mpr_selectors.discard(from_node)
        self._refresh_mprs()
        self._recompute()

    def _refresh_mprs(self) -> None:
        sym = [n for n, status in self._nbr.items() if status == "sym"]
        self.mprs = olsr.select_mprs(self.node.id, sym, self._two_hop)

    def _recompute(self) -> None:
        now = self.sim.now
        for origin in list(self._topo):
            if self._topo[origin][2] < now:
                del self._topo[origin]
        self._inputs_changed = True
        super()._recompute()

    def _expire_tcs(self, now: float) -> None:
        pass  # aged out above, on every call


def oracle_candidates(proto: DualProtocol, dest: int) -> list[tuple[float, int]]:
    """(distance via n, n) for every up neighbor, sorted."""
    out = []
    for nbr in sorted(proto._channels):
        advertised = proto.neighbor_dist.get(nbr, {}).get(dest, INFINITY)
        link = proto.node.links.get(nbr)
        if link is None or not link.up:
            continue
        via = advertised + link.spec.cost
        if via >= proto.max_distance:
            continue
        out.append((via, nbr))
    out.sort()
    return out


def oracle_best(proto: DualProtocol, dest: int, below: float = INFINITY):
    """The first sorted candidate whose advertised distance is below
    ``below``; with no bound that is the head of the list (every candidate
    advertises a finite distance)."""
    for via, nbr in oracle_candidates(proto, dest):
        if proto.neighbor_dist.get(nbr, {}).get(dest, INFINITY) < below:
            return via, nbr
    return None


class OracleDual(DualProtocol):
    def _best(self, dest: int, below: float = INFINITY):
        return oracle_best(self, dest, below)


ORACLES = {"SpfProtocol": OracleSpf, "OlsrProtocol": OracleOlsr, "DualProtocol": OracleDual}


def lockstep_pair(topo: Topology, make, warm: tuple[int, ...]):
    """The same network twice: live protocols, then oracle protocols."""
    nets = []
    for oracle in (False, True):
        sim = Simulator()
        net = recording_network(sim, topo)
        rng = RngStreams(3)
        net.attach_protocols(lambda node, oracle=oracle: make(node, rng, oracle))
        for node_id in warm:
            net.node(node_id).protocol.warm_start(topo)
        nets.append(net)
    return nets


# --------------------------------------------------------------------- SPF

#: Node 0's neighbors in the SPF lockstep network; LSAs also come from 5, 6.
SPF_LINKS = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4), (1, 4)]
SPF_ORIGINS = range(1, 7)
SPF_NEIGHBORS = (1, 2, 3)

spf_ops = st.one_of(
    st.tuples(
        st.just("lsa"),
        st.sampled_from(SPF_ORIGINS),
        # None re-advertises what the origin listed last, under a newer seq.
        st.none() | st.dictionaries(st.integers(0, 6), st.integers(1, 3), max_size=4),
    ),
    st.tuples(st.sampled_from(["fail", "restore", "detect"]), st.sampled_from(SPF_NEIGHBORS)),
)


def link_step(net, kind: str, target: int, pending: list[tuple[int, bool]]) -> None:
    """Fail or restore the link 0-``target``, or deliver the oldest detection
    still pending for it to both ends.  Detection lags the link: a link that
    fails and comes back is reported down, then up."""
    link = net.node(0).link_to(target)
    if kind == "fail" and link.up:
        link.fail()
        pending.append((target, False))
    elif kind == "restore" and not link.up:
        link.restore()
        pending.append((target, True))
    elif kind == "detect":
        for i, (which, up) in enumerate(pending):
            if which == target:
                del pending[i]
                for a, b in ((0, target), (target, 0)):
                    (net.node(a).on_link_up if up else net.node(a).on_link_down)(b)
                return


def spf_step(net, op, pending: list[tuple[int, bool]]) -> None:
    kind, target, *rest = op
    if kind != "lsa":
        link_step(net, kind, target, pending)
        return
    proto = net.node(0).protocol
    known = proto.database.get(target)
    if rest[0] is None:
        adjacencies = known.adjacencies if known else ()
    else:
        adjacencies = tuple((n, c) for n, c in rest[0].items() if n != target)
    proto.apply_message(Lsa(target, known.seq + 1 if known else 1, adjacencies), 1)


@pytest.mark.parametrize("lfa", [False, True], ids=["plain", "lfa"])
@SETTINGS
@given(ops=st.lists(spf_ops, max_size=25))
# An undetected failure, then an LSA that leaves the view as it was: the
# LFA backups must still be rebuilt without the dead neighbor.
@example(ops=[("fail", 1), ("lsa", 4, None)])
# A failure detected after the link came back: the backups swing in, the
# LSA stays the same, and the SPF run must still swing the FIB back.
@example(ops=[("fail", 1), ("restore", 1), ("detect", 1)])
# A cost dispute settled by database order, then a dropped adjacency.
@example(ops=[
    ("lsa", 5, {2: 3}), ("lsa", 2, {0: 1, 5: 1}), ("lsa", 5, {2: 1}), ("lsa", 2, {0: 1}),
])
def test_spf_matches_a_rebuilt_view_and_dijkstra_per_trigger(lfa, ops):
    topo = Topology("spf-lockstep")
    for a, b in SPF_LINKS:
        topo.connect(a, b)
    config = SpfConfig(lfa=lfa)

    def make(node, rng, is_oracle):
        return (OracleSpf if is_oracle else SpfProtocol)(node, rng, config)

    live, oracle = lockstep_pair(topo, make, warm=(0,))
    pending: list[list[tuple[int, bool]]] = [[], []]
    for op in ops:
        view_before = {n: dict(nbrs) for n, nbrs in live.node(0).protocol._view.items()}
        skipped_before = live.node(0).protocol.recomputes_skipped
        for net, queue in zip((live, oracle), pending):
            spf_step(net, op, queue)
        a, b = live.node(0).protocol, oracle.node(0).protocol
        assert a.database == b.database
        assert a._view == oracle_view(a.database, 0)
        assert recorded(live)["route"] == recorded(oracle)["route"]
        assert a.node.fib == b.node.fib and a._metrics == b._metrics
        assert a.backups == b.backups
        assert a.recomputations == b.recomputations
        if not lfa and a.recomputes_skipped > skipped_before:
            assert a._view == view_before  # a skip only ever saves a no-op


# -------------------------------------------------------------------- OLSR

OLSR_LINKS = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)]
OLSR_NODES = range(5)
GHOSTS = (10, 11)

olsr_ops = st.one_of(
    st.tuples(st.just("advance"), st.integers(1, 4)),
    st.tuples(
        st.just("tc"), st.sampled_from(GHOSTS), st.integers(1, 4),
        st.frozensets(st.sampled_from(OLSR_NODES), max_size=3),
    ),
    st.tuples(
        st.just("hello"), st.sampled_from((1, 2)),
        st.dictionaries(st.sampled_from((0, 1, 2, 3, 4)), st.sampled_from(("sym", "heard"))),
        st.frozensets(st.sampled_from((0, 3)), max_size=2),
    ),
    st.tuples(st.sampled_from(["fail", "restore", "detect"]), st.sampled_from((1, 2))),
)


def olsr_step(net, op, pending: list[tuple[int, bool]]) -> None:
    sim, node = net.sim, net.node(0)
    kind, *rest = op
    if kind == "advance":
        # Steps of 2.5 s meet a TC's 15 s hold time exactly.
        sim.run(until=sim.now + 2.5 * rest[0])
    elif kind == "tc":
        origin, seq, selectors = rest
        node.protocol.apply_message(OlsrTc(origin, seq, tuple(sorted(selectors))), 1)
    elif kind == "hello":
        sender, listing, mprs = rest
        hello = OlsrHello(
            sender,
            tuple(sorted((n, s) for n, s in listing.items() if n != sender)),
            tuple(sorted(mprs)),
        )
        node.protocol.apply_message(hello, sender)
    else:
        link_step(net, kind, rest[0], pending)


def olsr_state(net) -> list[tuple]:
    state = []
    for node in net.iter_nodes():
        p = node.protocol
        state.append((
            node.fib, p._metrics, p.mprs, p.mpr_selectors, p._topo, p._nbr,
            p._two_hop, p.recomputes_skipped,
        ))
    return state


@SETTINGS
@given(ops=st.lists(olsr_ops, max_size=20))
# A ghost TC recomputed at exactly its expiry instant stays in the table,
# so a replay of its seq is still turned away.
@example(ops=[
    ("tc", 10, 1, frozenset({3})), ("advance", 4), ("advance", 2),
    ("hello", 2, {0: "sym", 1: "sym", 3: "sym"}, frozenset()),
    ("tc", 10, 1, frozenset({4})),
])
# Neighbor 1 turns symmetric before its restore is detected; the detection
# demotes it to "heard", and the next HELLO, though it changes nothing
# itself, must re-select the MPRs without it.
@example(ops=[
    ("fail", 1), ("detect", 1), ("restore", 1),
    ("hello", 1, {0: "sym", 3: "sym"}, frozenset()), ("detect", 1),
    ("hello", 2, {0: "sym", 1: "sym", 3: "sym"}, frozenset()),
])
def test_olsr_matches_per_message_edges_and_mpr_selection(ops):
    topo = Topology("olsr-lockstep")
    for a, b in OLSR_LINKS:
        topo.connect(a, b)
    def make(node, rng, is_oracle):
        return (OracleOlsr if is_oracle else OlsrProtocol)(node, rng)

    live, oracle = lockstep_pair(topo, make, warm=tuple(OLSR_NODES))
    pending: list[list[tuple[int, bool]]] = [[], []]
    for op in ops:
        for net, queue in zip((live, oracle), pending):
            olsr_step(net, op, queue)
        assert olsr_state(live) == olsr_state(oracle)
        assert recorded(live)["route"] == recorded(oracle)["route"]


# -------------------------------------------------------------------- DUAL

CENTER = 50
DUAL_DESTS = (60, 61)
distances = st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, INFINITY])


@st.composite
def dual_cases(draw):
    nbrs = draw(st.lists(st.integers(20, 40), min_size=1, max_size=5, unique=True))
    costs = {nbr: draw(st.integers(1, 3)) for nbr in nbrs}
    tables = {
        nbr: draw(st.dictionaries(st.sampled_from(DUAL_DESTS), distances)) for nbr in nbrs
    }
    down = draw(st.sets(st.sampled_from(nbrs)))
    return costs, tables, down


@SETTINGS
@given(case=dual_cases(), below=distances)
def test_dual_selection_is_the_head_of_the_sorted_candidates(case, below):
    costs, tables, down = case
    topo = Topology("dual-star")
    for nbr, cost in costs.items():  # unsorted ids, ties at the bound
        topo.connect(CENTER, nbr, cost=cost)
    net = Network(Simulator(), topo, TraceBus())
    proto = DualProtocol(net.node(CENTER), RngStreams(1), net, max_distance=8.0)
    proto.start()
    for nbr, table in tables.items():
        proto.neighbor_dist[nbr].update(table)
    for nbr in down:
        net.node(CENTER).link_to(nbr).fail()  # undetected: still has a channel
    for dest in DUAL_DESTS:
        assert proto._best(dest) == oracle_best(proto, dest)
        assert proto._best(dest, below=below) == oracle_best(proto, dest, below)


# ------------------------------------------------------- churn scenarios


def run_churn(monkeypatch, protocol: str, model: str, seed: int, oracle: bool):
    recorder, buses, built = FlightRecorder(), [], []

    def counted(cls):
        def build(*args, **kwargs):
            built.append(cls)
            return cls(*args, **kwargs)

        return build

    def seen_bus():
        buses.append(TraceBus())
        return buses[-1]

    config = ExperimentConfig.quick().with_(
        validate=True,
        post_fail_window=20.0,
        churn=ChurnConfig(model=model, n_nodes=16, radio_range=400.0),
    )
    with monkeypatch.context() as patch:
        patch.setattr(scenario_module, "TraceBus", seen_bus)
        if oracle:
            # The catalogue's builders look their class up when they run,
            # so the swap must land there; ``built`` proves that it did.
            for name, cls in ORACLES.items():
                patch.setattr(catalog, name, counted(cls))
        result = run_churn_scenario(protocol, seed, config, recorder=recorder)
    assert bool(built) == oracle, f"{protocol}: oracle classes built: {len(built)}"
    (bus,) = buses
    return scenario_to_dict(result), recorder.streams["route"], bus.counters.as_dict()


@pytest.mark.parametrize("model", ["waypoint", "gauss-markov", "manhattan"])
@pytest.mark.parametrize("protocol", ["spf", "spf-lfa", "spf-slow", "olsr", "dual"])
def test_churn_scenarios_match_the_per_message_oracles(monkeypatch, protocol, model):
    for seed in (3, 7):
        live = run_churn(monkeypatch, protocol, model, seed, oracle=False)
        reference = run_churn(monkeypatch, protocol, model, seed, oracle=True)
        assert live[0]["events"], "the seed must actually churn links"
        assert live[1], "the run must change routes"
        assert live == reference, f"{protocol} {model} seed {seed}"
