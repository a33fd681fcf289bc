"""Point-to-point duplex link.

A :class:`Link` is two independent directed channels, each with its own
drop-tail output queue and store-and-forward serialization: a packet waits
for the transmitter to go idle, occupies it for ``size/bandwidth`` seconds,
then propagates for ``delay`` seconds before arriving at the far node.

Failure semantics (single-failure model of the paper): when the link fails,
every queued and propagating packet is dropped with cause ``LINK_DOWN``, and
any later transmit attempt is dropped the same way until the link is
restored.  A packet still serializing dies with ``LINK_DOWN`` when its
serialization ends, and holds the transmitter until then even if the link
is restored meanwhile.  Failure *detection* is separate — the endpoints
learn about the failure only after the injector's detection delay (see
:mod:`repro.net.dynamics`).

Link channel (one event per packet-hop).  A channel keeps a ``tx_end`` stamp:
the instant its transmitter frees.  When a packet starts serializing, its
arrival is scheduled at once, at ``(now + tx) + prop``.  A *transmitter* event
at ``tx_end`` exists only while a queue has formed (it starts the next
packet, control queue first) or while a failure has caught a packet on the
transmitter (it kills that packet).  So an idle link costs one event per
packet, where a two-event model (serialization done, then arrival) costs
two.

The events are ranked where that two-event model put them, so no result
changes: the arrival is ranked as of ``tx_end`` (the instant the
"serialization done" event scheduled it), and the transmitter event as of
``tx_start`` with the engine counter value drawn then (the rank the
"serialization done" event had).  See :meth:`Simulator._schedule_ranked`.
When a packet is sent at exactly ``tx_end``, :meth:`Simulator._has_run` says
whether the transmitter has already freed at that instant.  One tie is
ranked differently: an event scheduled during the instant ``tx_end``, before
the transmitter frees, for exactly ``tx_end + prop`` runs after the arrival
here and before it in the two-event model.  That takes a serialization time
equal to the propagation delay, or a timer of exactly that length, started
at that instant.

Hot-path notes: a packet that finds the transmitter idle skips the queue's
push and pop (its counters still record the pass), the arrival handle carries
the packet as its argument (no closure), in-flight handles are a FIFO list
(arrivals on one channel fire in launch order), and arrivals are handed
straight to the receiving node's ``receive`` (bound by :meth:`Link.deliver_to`).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from ..sim.engine import EventHandle, Simulator
from ..sim.tracing import DropCause
from ..sim.units import BITS_PER_BYTE
from ..topology.graph import LinkSpec
from .packet import Packet
from .queues import DropTailQueue

__all__ = ["Link", "DEFAULT_QUEUE_CAPACITY"]

#: Per-channel output queue size in packets (see DESIGN.md reconstruction).
DEFAULT_QUEUE_CAPACITY = 20

#: Called as dropper(packet, node_id, cause) when a channel kills a packet.
Dropper = Callable[[Packet, int, DropCause], None]


class _Channel:
    """One direction of a link."""

    __slots__ = (
        "_sim",
        "_link",
        "src",
        "dst",
        "queue",
        "control_queue",
        "_tx_start",
        "_tx_end",
        "_tx_seq",
        "_tx_event",
        "_doomed",
        "_in_flight",
        "_launched",
        "_bandwidth",
        "_prop_delay",
        "_receive",
        "_dropper",
        "arrival_gate",
    )

    def __init__(self, sim: Simulator, link: "Link", src: int, dst: int) -> None:
        self._sim = sim
        self._link = link
        self.src = src
        self.dst = dst
        self.queue = DropTailQueue(link.queue_capacity)
        # Separate strict-priority queue for routing messages when the link
        # is configured to protect its control plane from data congestion.
        self.control_queue = (
            DropTailQueue(link.queue_capacity) if link.priority_control else None
        )
        # The latest serialization started at _tx_start and frees the
        # transmitter at _tx_end; _tx_seq is the engine counter value drawn
        # when it started.  (_tx_end, _tx_start, _tx_seq) is its rank.
        self._tx_start = -float("inf")
        self._tx_end = -float("inf")
        self._tx_seq = -1
        #: The transmitter event at _tx_end, while one is needed.
        self._tx_event: Optional[EventHandle] = None
        #: A packet a failure caught on the transmitter; it dies at _tx_end.
        self._doomed: Optional[Packet] = None
        #: Arrival handles of the packets on the wire (serializing or
        #: propagating), oldest first; each handle's one argument is its packet.
        #: A list, not a deque: it rarely holds more than two, and an empty
        #: deque weighs 760 bytes per channel.
        self._in_flight: list[EventHandle] = []
        self._launched = 0
        self._bandwidth = link.spec.bandwidth
        self._prop_delay = link.spec.delay
        deliver = link._deliver
        #: Called as ``receive(packet, from_node)`` for each arrival.
        self._receive = partial(deliver, dst) if deliver is not None else None
        self._dropper = link._dropper
        #: Optional arrival interceptor, called as ``gate(channel, packet)``
        #: instead of delivering.  Installed by repro.dist on channels into
        #: cut-adjacent nodes so same-instant arrivals can be sequenced; the
        #: gate finishes the delivery via :meth:`deliver_now`.
        self.arrival_gate: Optional[Callable[["_Channel", Packet], None]] = None

    def _serializing(self) -> bool:
        """Is the latest serialization still in progress at this instant?"""
        return not self._sim._has_run(self._tx_end, self._tx_start, self._tx_seq)

    def _schedule_tx_event(self) -> None:
        self._tx_event = self._sim._schedule_ranked(
            self._tx_end, self._tx_start, self._tx_seq, self._tx_done, ()
        )

    def send(self, packet: Packet) -> None:
        if not self._link.up:
            self._dropper(packet, self.src, DropCause.LINK_DOWN)
            return
        cq = self.control_queue
        queue = cq if cq is not None and packet.kind == "control" else self.queue
        if self._tx_event is None:
            # No queue has formed: the transmitter is idle unless it is
            # still serializing.
            now = self._sim._now
            tx_end = self._tx_end
            if now > tx_end or (now == tx_end and not self._serializing()):
                # Straight through the empty queue onto the wire.
                queue.enqueued += 1
                if not queue.depth_hwm:
                    queue.depth_hwm = 1
                self._launch(packet)
                return
            self._schedule_tx_event()
        if not queue.push(packet):
            self._dropper(packet, self.src, DropCause.QUEUE_OVERFLOW)

    def _launch(self, packet: Packet) -> None:
        """Start serializing ``packet`` now and schedule its arrival.

        The one launch hook: repro.dist's boundary channel extends it to
        capture the packet for the far shard.
        """
        sim = self._sim
        now = sim._now
        tx_end = now + (packet.size_bytes * BITS_PER_BYTE) / self._bandwidth
        seq = next(sim._seq)
        self._tx_start = now
        self._tx_end = tx_end
        self._tx_seq = seq
        self._in_flight.append(
            sim._schedule_ranked(
                tx_end + self._prop_delay, tx_end, seq, self._arrive, (packet,)
            )
        )
        self._launched += 1

    def _tx_done(self) -> None:
        """The transmitter frees: a packet a failure caught on it dies now,
        then the next queued packet (control first) starts."""
        self._tx_event = None
        doomed = self._doomed
        if doomed is not None:
            self._doomed = None
            self._dropper(doomed, self.src, DropCause.LINK_DOWN)
        cq = self.control_queue
        packet = cq.pop() if cq is not None else None
        if packet is None:
            packet = self.queue.pop()
            if packet is None:
                return
        self._launch(packet)
        if len(self.queue) or (cq is not None and len(cq)):
            self._schedule_tx_event()

    def _arrive(self, packet: Packet) -> None:
        self._in_flight.pop(0)
        gate = self.arrival_gate
        if gate is not None:
            gate(self, packet)
            return
        self._receive(packet, self.src)

    def deliver_now(self, packet: Packet) -> None:
        """Finish an arrival whose propagation event already fired (or was
        cancelled by a sequencer that is replaying the slot in order)."""
        self._receive(packet, self.src)

    def close(self) -> None:
        """End the run: drop the callbacks, the link and the packets on the
        wire (see :meth:`Link.close`)."""
        self._link = None
        self._receive = self._dropper = self.arrival_gate = None
        self._in_flight.clear()
        self._tx_event = None

    @property
    def transmitted(self) -> int:
        """Packets that finished serializing onto the wire: not one still on
        the transmitter, nor one a failure caught there."""
        if self._doomed is None and self._serializing():
            return self._launched - 1
        return self._launched

    def occupancy(self, data_only: bool = False) -> int:
        """Packets currently held by this channel: queued, serializing, or
        propagating.  With ``data_only`` control messages are excluded.
        Used by the packet-conservation invariant monitor."""
        packets = list(self.queue)
        if self.control_queue is not None:
            packets.extend(self.control_queue)
        packets.extend(handle.args[0] for handle in self._in_flight)
        if self._doomed is not None:
            packets.append(self._doomed)
        if data_only:
            return sum(1 for p in packets if p.kind == "data")
        return len(packets)

    def flush_on_failure(self) -> None:
        """Drop everything queued or propagating (link just failed).

        A packet still serializing is not dropped here: it dies with
        ``LINK_DOWN`` at its ``tx_end``, and the transmitter stays busy until
        then, so a packet sent after a quick restore waits for it.
        """
        flight = self._in_flight
        if flight and self._doomed is None and self._serializing():
            handle = flight.pop()  # the newest arrival is the serializing one
            handle.cancel()
            self._doomed = handle.args[0]
            self._launched -= 1
            if self._tx_event is None:
                self._schedule_tx_event()
        dropper = self._dropper
        for handle in flight:
            handle.cancel()
            dropper(handle.args[0], self.src, DropCause.LINK_DOWN)
        flight.clear()
        for packet in self.queue.drain():
            dropper(packet, self.src, DropCause.LINK_DOWN)
        if self.control_queue is not None:
            for packet in self.control_queue.drain():
                dropper(packet, self.src, DropCause.LINK_DOWN)


class Link:
    """Duplex link between two live nodes."""

    __slots__ = (
        "_sim",
        "spec",
        "queue_capacity",
        "priority_control",
        "up",
        "_deliver",
        "_dropper",
        "_channels",
        "failed_at",
        "fail_listeners",
        "message_tap",
        "reliable_gate",
    )

    def __init__(
        self,
        sim: Simulator,
        spec: LinkSpec,
        deliver: Optional[Callable[[int, Packet, int], None]],
        dropper: Dropper,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        priority_control: bool = False,
    ) -> None:
        self._sim = sim
        self.spec = spec
        self.queue_capacity = queue_capacity
        self.priority_control = priority_control
        self.up = True
        #: Called as ``deliver(dst, packet, src)`` for each arrival, unless the
        #: receiving endpoint bound itself with :meth:`deliver_to`.  May be
        #: None when both endpoints do (as every Node does).
        self._deliver = deliver
        self._dropper = dropper
        a, b = spec.endpoints
        self._channels = {a: _Channel(sim, self, a, b), b: _Channel(sim, self, b, a)}
        self.failed_at: Optional[float] = None
        #: Called (with no arguments) the instant the link fails; used by
        #: reliable channels to flush their in-flight messages.
        self.fail_listeners: list[Callable[[], None]] = []
        #: Optional hook called as ``tap(src, dst, payload, arrive_at,
        #: tx_start)`` when a reliable channel on this link accepts a message.
        #: Installed by repro.dist on cut links to relay messages to the far
        #: shard.
        self.message_tap: Optional[
            Callable[[int, int, object, float, float], None]
        ] = None
        #: Optional arrival interceptor inherited by every ReliableChannel
        #: opened over this link, called as ``gate(channel, payload, tx_start)``.
        #: Installed by repro.dist on links into cut-adjacent nodes (at link
        #: creation, so sessions opened at any later point inherit it too).
        self.reliable_gate = None

    @property
    def endpoints(self) -> tuple[int, int]:
        return self.spec.endpoints

    def other_end(self, node: int) -> int:
        a, b = self.endpoints
        if node == a:
            return b
        if node == b:
            return a
        raise ValueError(f"node {node} is not an endpoint of link {self.endpoints}")

    def sender_from(self, node: int) -> Callable[[Packet], None]:
        """Bound ``channel.send`` for the direction leaving ``node``.

        Nodes cache this in their per-neighbor dispatch table so the per-packet
        transmit path is one dict lookup + one call, with no Link indirection.
        """
        channel = self._channels.get(node)
        if channel is None:
            raise ValueError(
                f"node {node} is not an endpoint of link {self.endpoints}"
            )
        return channel.send

    def deliver_to(self, node: int, receive: Callable[[Packet, int], None]) -> None:
        """Hand packets arriving at ``node`` straight to
        ``receive(packet, from_node)`` instead of the ``deliver`` callback.

        :meth:`Node.add_link` binds the node's ``receive`` here, so an
        arrival is one call into the node.
        """
        self._channels[self.other_end(node)]._receive = receive

    def transmit(self, from_node: int, packet: Packet) -> None:
        """Send ``packet`` from ``from_node`` toward the other endpoint."""
        channel = self._channels.get(from_node)
        if channel is None:
            raise ValueError(
                f"node {from_node} is not an endpoint of link {self.endpoints}"
            )
        channel.send(packet)

    def fail(self) -> None:
        """Take the link down, killing all queued and in-flight packets (one
        still serializing dies when its serialization ends)."""
        if not self.up:
            return
        self.up = False
        self.failed_at = self._sim.now
        for channel in self._channels.values():
            channel.flush_on_failure()
        for listener in self.fail_listeners:
            listener()

    def restore(self) -> None:
        """Bring the link back up (used by repair experiments, not the paper's)."""
        self.up = True
        self.failed_at = None

    def close(self) -> None:
        """End the run: drop every callback into the network (the channels'
        deliveries and drops, fail listeners, taps and gates).  Counters and
        ``up`` stay readable."""
        self._deliver = self._dropper = None
        self.fail_listeners.clear()
        self.message_tap = self.reliable_gate = None
        for channel in self._channels.values():
            channel.close()

    def queue_length(self, from_node: int) -> int:
        return len(self._channels[from_node].queue)

    def queue_depth_hwm(self) -> int:
        """Deepest any of this link's output queues has ever been (packets),
        control-priority queues included.  Harvested by repro.obs."""
        hwm = 0
        for channel in self._channels.values():
            if channel.queue.depth_hwm > hwm:
                hwm = channel.queue.depth_hwm
            if (
                channel.control_queue is not None
                and channel.control_queue.depth_hwm > hwm
            ):
                hwm = channel.control_queue.depth_hwm
        return hwm

    def occupancy(self, data_only: bool = False) -> int:
        """Packets currently inside the link (both directions): queued,
        serializing, or in flight."""
        return sum(c.occupancy(data_only=data_only) for c in self._channels.values())

    @property
    def packets_transmitted(self) -> int:
        return sum(c.transmitted for c in self._channels.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.up else "DOWN"
        return f"<Link {self.endpoints} {state}>"
