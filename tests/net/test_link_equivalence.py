"""Differential test: the one-event link against a two-event reference model.

The reference below is the straightforward store-and-forward channel — a
"serialization done" event at ``tx_end`` that schedules the arrival ``prop``
later — over a plain ``(time, seq)`` engine.  A packet a failure catches on
the transmitter dies at its ``tx_end`` even if the link is back by then.
The real :class:`~repro.net.link.Link` schedules the arrival when
serialization starts and keeps a transmitter event only while a queue has
formed; its event ranking must make every observable identical: the ordered
delivery/drop log, ``occupancy()`` and ``packets_transmitted`` sampled along
the way, and each queue's counters.

Three nodes on a line (0 - 1 - 2) give deliberate exact ties: node 1
forwards arrivals from one link onto the next, and equal-size packets sent
back to back arrive at node 1 at exactly the instant its outgoing
transmitter frees.  Serialization times never equal the propagation delay
here: an arrival is ranked as of its ``tx_end``, ahead of any other event
scheduled during that same instant, and only an event scheduled then for
exactly ``tx_end + prop`` (a transmitter event whose serialization lasts
``prop``) could tell the two rankings apart.
"""

from __future__ import annotations

import heapq
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.sim.engine import Simulator
from repro.sim.tracing import DropCause
from repro.sim.units import BITS_PER_BYTE
from repro.topology.graph import LinkSpec

# --------------------------------------------------------------- the oracle


class _Event:
    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class OracleSim:
    """``(time, seq)`` engine: same-time events run in scheduling order."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list = []
        self._seq = itertools.count()

    def schedule(self, delay, callback, *args):
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time, callback, *args):
        event = _Event()
        heapq.heappush(self._heap, (time, next(self._seq), event, callback, args))
        return event

    def run(self) -> None:
        while self._heap:
            time, _, event, callback, args = heapq.heappop(self._heap)
            if not event.cancelled:
                self.now = time
                callback(*args)


class OracleChannel:
    """Two events per packet-hop: serialization done, then arrival."""

    def __init__(self, sim, link, src, dst) -> None:
        self.sim, self.link, self.src, self.dst = sim, link, src, dst
        self.queue = DropTailQueue(link.capacity)
        self.control_queue = DropTailQueue(link.capacity) if link.priority else None
        self.serializing = None
        self.killed = False
        self.in_flight: dict = {}
        self.transmitted = 0

    def send(self, packet) -> None:
        if not self.link.up:
            return self.link.dropper(packet, self.src, DropCause.LINK_DOWN)
        cq = self.control_queue
        queue = cq if cq is not None and packet.kind == "control" else self.queue
        if not queue.push(packet):
            return self.link.dropper(packet, self.src, DropCause.QUEUE_OVERFLOW)
        if self.serializing is None:
            self.start_next()

    def start_next(self) -> None:
        cq = self.control_queue
        packet = cq.pop() if cq is not None else None
        self.serializing = packet if packet is not None else self.queue.pop()
        if self.serializing is not None:
            tx = (self.serializing.size_bytes * BITS_PER_BYTE) / self.link.spec.bandwidth
            self.sim.schedule(tx, self.serialized, self.serializing)

    def serialized(self, packet) -> None:
        self.serializing = None
        if self.killed:
            self.killed = False
            self.link.dropper(packet, self.src, DropCause.LINK_DOWN)
        else:
            handle = self.sim.schedule(self.link.spec.delay, self.arrive, packet)
            self.in_flight[id(packet)] = (handle, packet)
            self.transmitted += 1
        self.start_next()

    def arrive(self, packet) -> None:
        del self.in_flight[id(packet)]
        self.link.deliver(self.dst, packet, self.src)

    def occupancy(self, data_only: bool) -> int:
        packets = [*self.queue, *(self.control_queue or ())]
        packets += [p for _, p in self.in_flight.values()]
        packets += [self.serializing] if self.serializing is not None else []
        return sum(1 for p in packets if p.kind == "data" or not data_only)

    def flush(self) -> None:
        for handle, packet in self.in_flight.values():
            handle.cancel()
            self.link.dropper(packet, self.src, DropCause.LINK_DOWN)
        self.in_flight.clear()
        for queue in (self.queue, self.control_queue):
            for packet in queue.drain() if queue is not None else ():
                self.link.dropper(packet, self.src, DropCause.LINK_DOWN)
        self.killed = self.serializing is not None


class OracleLink:
    def __init__(self, sim, spec, deliver, dropper, queue_capacity, priority_control):
        self.spec, self.deliver, self.dropper = spec, deliver, dropper
        self.capacity, self.priority, self.up = queue_capacity, priority_control, True
        a, b = spec.endpoints
        self._channels = {a: OracleChannel(sim, self, a, b), b: OracleChannel(sim, self, b, a)}

    def transmit(self, from_node, packet) -> None:
        self._channels[from_node].send(packet)

    def fail(self) -> None:
        if self.up:
            self.up = False
            for channel in self._channels.values():
                channel.flush()

    def restore(self) -> None:
        self.up = True

    def occupancy(self, data_only: bool = False) -> int:
        return sum(c.occupancy(data_only) for c in self._channels.values())

    @property
    def packets_transmitted(self) -> int:
        return sum(c.transmitted for c in self._channels.values())


# ------------------------------------------------------------- the harness

MS = 0.001
#: 1 Mb/s: 64, 100, 250, 500 B serialize in 0.512, 0.8, 2 and 4 ms.
DECIMAL = LinkSpec(0, 1, delay=MS, bandwidth=1_000_000)
#: 2^20 b/s and a 2^-10 s delay: every instant is a dyadic fraction, so
#: sums of serialization times tie exactly far more often.
DYADIC = LinkSpec(0, 1, delay=2.0**-10, bandwidth=float(2**20))
SIZES = (64, 100, 250, 500)


def run_model(sim, link_cls, spec, capacity, priority, sends, outages, sample_every):
    """Build the 0 - 1 - 2 line, play the scenario, return every observable.

    ``sends`` are ``(time, src, dst, size, kind, packet_id)`` (control
    packets are link-local, data packets cross node 1); ``outages`` are
    ``(time, link_index, "fail" | "restore")``.
    """
    log = []

    def deliver(node, packet, from_node):
        if packet.dst == node:
            log.append((sim.now, node, packet.packet_id, "deliver", None))
        else:
            links[node if packet.dst > node else node - 1].transmit(node, packet)

    def dropper(packet, node, cause):
        log.append((sim.now, node, packet.packet_id, "drop", cause))

    links = [
        link_cls(
            sim,
            LinkSpec(a, a + 1, delay=spec.delay, bandwidth=spec.bandwidth),
            deliver=deliver,
            dropper=dropper,
            queue_capacity=capacity,
            priority_control=priority,
        )
        for a in (0, 1)
    ]
    samples = []

    def sample():
        samples.append(tuple(
            (link.occupancy(), link.occupancy(data_only=True), link.packets_transmitted)
            for link in links
        ))

    def send(src, dst, size, kind, packet_id):
        packet = Packet(
            src=src, dst=dst, kind=kind, size_bytes=size, packet_id=packet_id,
            ttl=8 if kind == "data" else 1,
        )
        links[src if dst > src else src - 1].transmit(src, packet)

    events = [(t, 0, send, args) for t, *args in sends]
    events += [
        (t, 1, getattr(links[index], action), ()) for t, index, action in outages
    ]
    end = max([t for t, *_ in events] + [0.0]) + 0.05
    k = 0
    while k * sample_every <= end:
        events.append((k * sample_every, 2, sample, ()))
        k += 1
    for t, _, fn, args in sorted(events, key=lambda e: (e[0], e[1])):
        sim.schedule_at(t, fn, *args)
    sim.run()
    sample()
    counters = [
        (q.enqueued, q.dropped, q.drained, q.depth_hwm, len(q))
        for link in links
        for channel in link._channels.values()
        for q in (channel.queue, channel.control_queue)
        if q is not None
    ]
    return log, samples, counters


def assert_equivalent(spec, capacity, priority, sends, outages, sample_every=0.5 * MS):
    args = (spec, capacity, priority, sends, outages, sample_every)
    expected = run_model(OracleSim(), OracleLink, *args)
    actual = run_model(Simulator(), Link, *args)
    assert actual[0] == expected[0], "delivery/drop log differs"
    assert actual[1] == expected[1], "occupancy / packets_transmitted samples differ"
    assert actual[2] == expected[2], "queue counters differ"
    return actual


# ------------------------------------------------------------------ fixtures


def test_arrival_at_a_dying_transmitters_tx_end():
    # Node 1 forwards packet 0 onto link 1-2, which fails while packet 0 is
    # serializing there.  Packet 1 reaches node 1 at the very instant packet
    # 0's serialization ends: the kill is ranked as of packet 0's
    # serialization start, the arrival as of packet 1's serialization end
    # on link 0-1, so packet 0 dies first and then packet 1 is dropped on
    # the dead link.  An arrival ranked as of its own serialization start
    # would run first and swap the two drops.
    tx, prop = 4 * 2.0**-10, 2.0**-10  # 512 B at 2^20 b/s
    assert (prop + tx) + tx == (tx + tx) + prop  # the tie is exact
    sends = [(0.0, 0, 2, 512, "data", 0), (0.0, 0, 2, 512, "data", 1)]
    outages = [(prop + tx + prop, 1, "fail")]
    log, _, _ = assert_equivalent(DYADIC, 20, False, sends, outages)
    t = prop + tx + tx
    assert log == [
        (t, 1, 0, "drop", DropCause.LINK_DOWN),
        (t, 1, 1, "drop", DropCause.LINK_DOWN),
    ]


def test_fail_and_restore_while_serializing():
    sends = [(0.0, 0, 1, 500, "data", 0), (2.5 * MS, 0, 1, 500, "data", 1)]
    outages = [(1 * MS, 0, "fail"), (2 * MS, 0, "restore")]
    log, _, _ = assert_equivalent(DECIMAL, 4, False, sends, outages)
    assert [(entry[2], entry[3]) for entry in log] == [(0, "drop"), (1, "deliver")]


def test_back_to_back_chain_through_the_middle_node():
    # Equal sizes: each packet reaches node 1 exactly when the previous one
    # finishes serializing onto link 1-2.
    sends = [(0.0, 0, 2, 250, "data", i) for i in range(6)]
    assert_equivalent(DECIMAL, 2, False, sends, [])
    assert_equivalent(DYADIC, 2, False, sends, [])


# ---------------------------------------------------------------- property

ROUTES = ((0, 2), (0, 1), (1, 0), (1, 2), (2, 0))


@st.composite
def scenarios(draw):
    spec = draw(st.sampled_from((DECIMAL, DYADIC)))
    # Instants on a grid that lines up with serialization ends.
    grid = spec.delay / 2
    sends = []
    for packet_id in range(draw(st.integers(1, 14))):
        src, dst = draw(st.sampled_from(ROUTES))
        kind = draw(st.sampled_from(("data", "data", "control")))
        if kind == "control":
            dst = src + 1 if dst > src else src - 1
        sends.append((
            draw(st.integers(0, 24)) * grid, src, dst, draw(st.sampled_from(SIZES)),
            kind, packet_id,
        ))
    if draw(st.booleans()):
        # Equal-size packets sent back to back: exact ties at node 1.
        t0 = draw(st.integers(0, 8)) * grid
        size = draw(st.sampled_from(SIZES))
        base = len(sends)
        sends += [(t0, 0, 2, size, "data", base + i) for i in range(draw(st.integers(2, 6)))]
    # Failing a down link or restoring an up one is a no-op on both sides.
    outages = [
        (k * grid, index, action)
        for index in (0, 1)
        for k, action in draw(st.lists(
            st.tuples(st.integers(0, 40), st.sampled_from(("fail", "restore"))),
            max_size=4,
        ))
    ]
    return (
        spec,
        draw(st.integers(1, 4)),
        draw(st.booleans()),
        sends,
        outages,
    )


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_one_event_link_matches_the_two_event_model(scenario):
    spec, capacity, priority, sends, outages = scenario
    assert_equivalent(spec, capacity, priority, sends, outages)
