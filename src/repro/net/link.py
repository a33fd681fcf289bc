"""Point-to-point duplex link.

A :class:`Link` is two independent directed channels, each with its own
drop-tail output queue and store-and-forward serialization: a packet waits
for the transmitter to go idle, occupies it for ``size/bandwidth`` seconds,
then propagates for ``delay`` seconds before arriving at the far node.

Failure semantics (single-failure model of the paper): when the link fails,
every queued and in-flight packet is dropped with cause ``LINK_DOWN``, and
any later transmit attempt is dropped the same way until the link is
restored.  Failure *detection* is separate — the endpoints learn about the
failure only after the injector's detection delay (see
:mod:`repro.net.dynamics`).

Hot-path notes: serialization and propagation events pass the packet to
``Simulator.schedule`` as an argument (no per-packet lambda allocation), the
per-link bandwidth/propagation figures are cached on the channel, and in-flight
packets are tracked in a dict keyed by packet identity for O(1) arrival.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..sim.engine import EventHandle, Simulator
from ..sim.tracing import DropCause
from ..sim.units import BITS_PER_BYTE
from ..topology.graph import LinkSpec
from .packet import Packet
from .queues import DropTailQueue

if TYPE_CHECKING:  # pragma: no cover
    from .node import Node

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
        "_busy",
        "_serializing",
        "_in_flight",
        "_bandwidth",
        "_prop_delay",
        "transmitted",
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
        self._busy = False
        self._serializing: Optional[Packet] = None
        self._in_flight: dict[int, tuple[EventHandle, Packet]] = {}
        self._bandwidth = link.spec.bandwidth
        self._prop_delay = link.spec.delay
        self.transmitted = 0
        #: Optional arrival interceptor, called as ``gate(channel, packet)``
        #: instead of delivering.  Installed by repro.dist on channels into
        #: cut-adjacent nodes so same-instant arrivals can be sequenced; the
        #: gate finishes the delivery via :meth:`deliver_now`.
        self.arrival_gate: Optional[Callable[["_Channel", Packet], None]] = None

    def send(self, packet: Packet) -> None:
        if not self._link.up:
            self._link._drop(packet, self.src, DropCause.LINK_DOWN)
            return
        queue = (
            self.control_queue
            if self.control_queue is not None and packet.is_control
            else self.queue
        )
        if not queue.push(packet):
            self._link._drop(packet, self.src, DropCause.QUEUE_OVERFLOW)
            return
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        packet = None
        if self.control_queue is not None:
            packet = self.control_queue.pop()
        if packet is None:
            packet = self.queue.pop()
        if packet is None:
            self._busy = False
            self._serializing = None
            return
        self._busy = True
        self._serializing = packet
        tx = (packet.size_bytes * BITS_PER_BYTE) / self._bandwidth
        self._sim.schedule(tx, self._serialized, packet)

    def _serialized(self, packet: Packet) -> None:
        # Serialization finished; packet enters propagation.  The transmitter
        # is free to start the next packet.
        self._serializing = None
        if not self._link.up:
            self._link._drop(packet, self.src, DropCause.LINK_DOWN)
            self._busy = False
            return
        handle = self._sim.schedule(self._prop_delay, self._arrive, packet)
        self._in_flight[id(packet)] = (handle, packet)
        self.transmitted += 1
        self._start_next()

    def _arrive(self, packet: Packet) -> None:
        del self._in_flight[id(packet)]
        gate = self.arrival_gate
        if gate is not None:
            gate(self, packet)
            return
        self._link._deliver(self.dst, packet, self.src)

    def deliver_now(self, packet: Packet) -> None:
        """Finish an arrival whose propagation event already fired (or was
        cancelled by a sequencer that is replaying the slot in order)."""
        self._link._deliver(self.dst, packet, self.src)

    def occupancy(self, data_only: bool = False) -> int:
        """Packets currently held by this channel: queued, serializing, or
        propagating.  With ``data_only`` control messages are excluded.
        Used by the packet-conservation invariant monitor."""
        packets = list(self.queue)
        if self.control_queue is not None:
            packets.extend(self.control_queue)
        if self._serializing is not None:
            packets.append(self._serializing)
        packets.extend(p for _, p in self._in_flight.values())
        if data_only:
            return sum(1 for p in packets if p.is_data)
        return len(packets)

    def flush_on_failure(self) -> None:
        """Drop everything queued or propagating (link just failed)."""
        for handle, packet in self._in_flight.values():
            handle.cancel()
            self._link._drop(packet, self.src, DropCause.LINK_DOWN)
        self._in_flight.clear()
        for packet in self.queue.drain():
            self._link._drop(packet, self.src, DropCause.LINK_DOWN)
        if self.control_queue is not None:
            for packet in self.control_queue.drain():
                self._link._drop(packet, self.src, DropCause.LINK_DOWN)
        self._busy = False


class Link:
    """Duplex link between two live nodes."""

    __slots__ = (
        "_sim",
        "spec",
        "queue_capacity",
        "priority_control",
        "up",
        "_deliver_cb",
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
        deliver: Callable[[int, Packet, int], None],
        dropper: Dropper,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        priority_control: bool = False,
    ) -> None:
        self._sim = sim
        self.spec = spec
        self.queue_capacity = queue_capacity
        self.priority_control = priority_control
        self.up = True
        self._deliver_cb = deliver
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
        #: opened over this link, called as ``gate(channel, entry)``.
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

    def transmit(self, from_node: int, packet: Packet) -> None:
        """Send ``packet`` from ``from_node`` toward the other endpoint."""
        channel = self._channels.get(from_node)
        if channel is None:
            raise ValueError(
                f"node {from_node} is not an endpoint of link {self.endpoints}"
            )
        channel.send(packet)

    def fail(self) -> None:
        """Take the link down, killing all queued and in-flight packets."""
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

    def _deliver(self, dst: int, packet: Packet, src: int) -> None:
        self._deliver_cb(dst, packet, src)

    def _drop(self, packet: Packet, node: int, cause: DropCause) -> None:
        self._dropper(packet, node, cause)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.up else "DOWN"
        return f"<Link {self.endpoints} {state}>"
