"""Differential test: the lazy CBR source against an eager reference.

The reference below schedules a flow's whole emission window at ``start()``,
one ``schedule_at`` per emission — emission *k* ranks ``(t_k, t0, s0 + k)``.
The real :class:`~repro.traffic.cbr.CbrSource` keeps one pending emission
ranked ``(t_k, t0, s0)`` and re-arms the next when it fires.  Both run on the
real engine; every executed event (time, callback, arguments), every packet
trace record and each source's ``sent`` must be identical, and the lazy
source must never hold more than one pending engine entry.

Three nodes on a line (0 - 1 - 2) with dyadic link parameters and dyadic
rates put deliberate exact ties on emission instants: timers scheduled
before and after ``start()`` during the same instant, link failures and
restores, and forwarded packets arriving at node 1 exactly when node 1
emits.  :class:`~repro.traffic.flows.FlowSpec` refuses ``start == stop``;
the empty window is reached by starting a source at or after its ``stop``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.dynamics import LinkEvent, LinkScheduler
from repro.net.network import Network
from repro.net.packet import Packet, reset_packet_ids
from repro.sim.engine import Simulator
from repro.topology.graph import LinkSpec, Topology
from repro.traffic.cbr import CbrSource
from repro.traffic.flows import FlowSpec

# --------------------------------------------------------------- the oracle


class EagerCbrSource:
    """Every emission of the window scheduled at ``start()``, in order."""

    def __init__(self, sim, network, spec) -> None:
        self.sim, self.spec, self.sent = sim, spec, 0
        self._src_node = network.node(spec.src)

    def start(self) -> None:
        sim, spec = self.sim, self.spec
        t = sim.now + max(0.0, spec.start - sim.now)
        times = []
        while t < spec.stop:
            times.append(t)
            t += spec.interval
        for t in times:
            sim.schedule_at(t, self._emit)

    def _emit(self) -> None:
        spec = self.spec
        self._src_node.originate(Packet(
            src=spec.src, dst=spec.dst, kind="data", ttl=spec.ttl,
            size_bytes=spec.packet_bytes, flow_id=spec.flow_id,
        ))
        self.sent += 1


# ------------------------------------------------------------- the harness

#: One grid step: 2^-10 s.  A 512 B packet serializes in 4 steps at 2^20 b/s.
STEP = 2.0**-10
SIZES = (128, 256, 512)
RATES = (256.0, 512.0, 1024.0)  # intervals of 4, 2 and 1 steps


def _name(callback, args):
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, (CbrSource, EagerCbrSource)):
        return ("emit", owner.spec.flow_id)
    plain = []
    for arg in args:
        if isinstance(arg, Packet):
            arg = ("packet", arg.packet_id)
        elif isinstance(arg, LinkEvent):
            arg = (arg.kind, arg.a, arg.b, arg.time)
        plain.append(arg)
    return (callback.__name__, tuple(plain))


def line3():
    topo = Topology(name="line-3")
    for a in (0, 1):
        topo.add_link(LinkSpec(a, a + 1, delay=STEP, bandwidth=float(2**20)))
    return topo


def pending_emissions(sim, source):
    return sum(
        1 for entry in sim._heap
        if not entry[3].cancelled and getattr(entry[3].callback, "__self__", None) is source
    )


def run_model(source_cls, flows, start_at, early, before, after, outages, capacity=4):
    """Play one scenario; return (event trace, packet records, sent per flow).

    ``flows`` are FlowSpecs started by one event at ``start_at``.  Timers at
    the listed instants are scheduled at time 0 (``early``), during that
    event before the first ``start()`` (``before``) and after the last
    (``after``).  ``outages`` are ``(when, a, b, fail_at, restore_at)``,
    scheduled at time 0 (``when == "early"``) or inside the start event
    before or after the sources start (``"before"`` / ``"after"``).
    """
    reset_packet_ids()
    sim = Simulator()
    net = Network(sim, line3(), queue_capacity=capacity)
    for node, dest, hop in ((0, 2, 1), (1, 2, 2), (2, 0, 1), (1, 0, 0), (0, 1, 1), (2, 1, 1)):
        net.node(node).set_next_hop(dest, hop)
    packets = []
    net.bus.subscribe("packet", packets.append)
    links = LinkScheduler(sim, net, detection_delay=STEP)
    sources = [source_cls(sim, net, spec) for spec in flows]

    def timer(label):
        pass

    def schedule_outages(when):
        for phase, a, b, fail_at, restore_at in outages:
            if phase == when:
                links.fail_link(a, b, fail_at)
                links.restore_link(a, b, restore_at)

    def kick():
        schedule_outages("before")
        for t in before:
            sim.schedule_at(t, timer, "before")
        for source in sources:
            source.start()
        for t in after:
            sim.schedule_at(t, timer, "after")
        schedule_outages("after")

    for t in early:
        sim.schedule_at(t, timer, "early")
    schedule_outages("early")
    sim.schedule_at(start_at, kick)

    trace = []
    while sim.peek_time() is not None:  # peek drops cancelled husks
        handle = sim._heap[0][3]
        sim.run(max_events=1)
        trace.append((sim.now, _name(handle.callback, handle.args)))
        if source_cls is CbrSource:
            for source in sources:
                assert pending_emissions(sim, source) <= 1, "more than one pending emission"
    return trace, packets, [source.sent for source in sources]


def assert_equivalent(*args, **kwargs):
    expected = run_model(EagerCbrSource, *args, **kwargs)
    actual = run_model(CbrSource, *args, **kwargs)
    assert actual[0] == expected[0], "executed event trace differs"
    assert actual[1] == expected[1], "packet trace records differ"
    assert actual[2] == expected[2], "sent differs"
    return actual


def flow(flow_id=1, src=0, dst=2, rate=256.0, start=8 * STEP, stop=40 * STEP, size=512):
    return FlowSpec(
        flow_id=flow_id, src=src, dst=dst, rate_pps=rate, start=start, stop=stop,
        packet_bytes=size,
    )


def emit_times(trace, flow_id=1):
    return [t for t, name in trace if name == ("emit", flow_id)]


# ------------------------------------------------------------------ fixtures


def test_timer_scheduled_before_start_runs_first_at_every_tie():
    # start() at 8 steps; the timers are ranked as of 8 steps with a seq
    # below s0, so each runs just before the emission it ties with.
    times = [8 * STEP, 12 * STEP, 20 * STEP]
    trace, _, sent = assert_equivalent([flow()], 8 * STEP, [], times, [], [])
    assert sent == [8]
    for t in times:
        at_t = [name for when, name in trace if when == t]
        assert at_t.index(("timer", ("before",))) + 1 == at_t.index(("emit", 1))


def test_timer_scheduled_after_start_runs_after_every_tie():
    # Ranked as of the start instant with a seq above every emission's,
    # in the batch and lazily alike.
    times = [8 * STEP, 16 * STEP, 36 * STEP]
    trace, _, _ = assert_equivalent([flow()], 8 * STEP, [], [], times, [])
    for t in times:
        at_t = [name for when, name in trace if when == t]
        assert at_t.index(("emit", 1)) < at_t.index(("timer", ("after",)))


def test_timer_scheduled_earlier_runs_before_the_tie():
    times = [8 * STEP, 24 * STEP]
    assert_equivalent([flow()], 4 * STEP, times, [], [], [])


def test_link_fail_and_restore_on_emission_instants():
    for phase in ("early", "before", "after"):
        outages = [
            (phase, 0, 1, 12 * STEP, 20 * STEP),
            (phase, 1, 2, 16 * STEP, 17 * STEP),
        ]
        _, packets, _ = assert_equivalent([flow()], 8 * STEP, [], [], [], outages)
        assert packets, "the scenario produced no packet records"


def test_forwarded_arrivals_land_on_emission_instants():
    # Flow 1 emits at node 0 every 2 steps; its 128 B packets serialize in
    # 1 step and propagate in 1, so each arrives at node 1 on an instant
    # where flow 2 (node 1 -> node 2, every 2 steps) emits too.
    flows = [
        flow(1, src=0, dst=2, rate=512.0, size=128),
        flow(2, src=1, dst=2, rate=512.0, start=10 * STEP, size=128),
    ]
    trace, _, sent = assert_equivalent(flows, 8 * STEP, [], [], [], [])
    arrivals = {t for t, name in trace if name[0] == "_arrive"}
    assert arrivals & set(emit_times(trace, 2)), "no arrival tied with an emission"
    assert sent == [16, 15]


def test_start_in_the_future():
    trace, _, sent = assert_equivalent([flow(start=20 * STEP)], 4 * STEP, [], [], [], [])
    assert emit_times(trace)[0] == 20 * STEP
    assert sent == [5]


def test_late_start_emits_from_now():
    trace, _, sent = assert_equivalent([flow(start=8 * STEP)], 13 * STEP, [], [], [], [])
    assert emit_times(trace)[0] == 13 * STEP
    assert sent == [7]


def test_start_when_the_window_has_closed_emits_nothing():
    for start_at in (40 * STEP, 50 * STEP):  # at stop, and past it
        trace, packets, sent = assert_equivalent(
            [flow()], start_at, [], [start_at], [start_at], []
        )
        assert sent == [0] and not packets and not emit_times(trace)


def test_a_started_source_holds_one_pending_entry():
    sim = Simulator()
    net = Network(sim, line3())
    sources = [CbrSource(sim, net, flow()), CbrSource(sim, net, flow(2, src=2, dst=0))]
    for source in sources:
        source.start()
    assert sim.pending_events == 2
    sim.run(until=20 * STEP)
    assert [pending_emissions(sim, source) for source in sources] == [1, 1]
    sim.run()
    assert [source.sent for source in sources] == [8, 8]
    assert sim.pending_events == 0


# ---------------------------------------------------------------- property

ROUTES = ((0, 2), (2, 0), (1, 2), (0, 1))


@st.composite
def scenarios(draw):
    grid = st.integers(0, 48)
    flows = []
    for flow_id in range(1, draw(st.integers(1, 3)) + 1):
        src, dst = draw(st.sampled_from(ROUTES))
        start = draw(grid)
        flows.append(flow(
            flow_id, src, dst, rate=draw(st.sampled_from(RATES)),
            start=start * STEP, stop=(start + draw(st.integers(1, 24))) * STEP,
            size=draw(st.sampled_from(SIZES)),
        ))
    start_at = draw(grid) * STEP
    timers = lambda lo: [t * STEP for t in draw(st.lists(st.integers(lo, 64), max_size=4))]
    outages = []
    for a in (0, 1):
        if draw(st.booleans()):
            phase = draw(st.sampled_from(("early", "before", "after")))
            lo = 0 if phase == "early" else round(start_at / STEP)
            fail_at = draw(st.integers(lo, 56))
            restore_at = fail_at + draw(st.integers(1, 8))
            outages.append((phase, a, a + 1, fail_at * STEP, restore_at * STEP))
    return dict(
        flows=flows,
        start_at=start_at,
        early=timers(0),
        before=timers(round(start_at / STEP)),
        after=timers(round(start_at / STEP)),
        outages=outages,
        capacity=draw(st.integers(1, 4)),
    )


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_lazy_source_matches_the_eager_batch(scenario):
    assert_equivalent(**scenario)
