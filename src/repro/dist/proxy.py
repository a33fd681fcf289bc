"""Proxy-link stubs: the outbound half of a cut link.

Each cut link exists in both adjacent shards.  The shard owning the sending
endpoint replaces its outbound channel with a :class:`BoundaryChannel`,
which models queueing, serialization, propagation occupancy, and failure
drops exactly like a real channel — but instead of delivering to the (ghost)
far node, it records a :class:`PacketRelay` for the coordinator to ship to
the owning shard.  Reliable routing messages (BGP's TCP abstraction) are
captured via :attr:`~repro.net.link.Link.message_tap` as
:class:`MessageRelay`.

Determinism hinges on capture-time loss resolution: whether a packet
survives the link's future failures is decided *when it starts serializing*
(a reliable message: when it is sent), against the precomputed outage
schedule the coordinator ships to every worker.  A packet killed in flight
is never relayed — the sending shard's own channel produces the identical
``LINK_DOWN`` drop the single-process run would — so the receiving shard
can schedule every relay it is handed unconditionally.
"""

from __future__ import annotations

import itertools
import pickle
from dataclasses import dataclass
from typing import Callable, NamedTuple

from ..net.link import Link, _Channel
from ..net.packet import Packet
from ..sim.engine import Simulator

__all__ = [
    "PacketRelay",
    "MessageRelay",
    "ShardHeartbeat",
    "BoundaryChannel",
    "make_message_tap",
]


class ShardHeartbeat(NamedTuple):
    """One shard's progress snapshot, piggybacked on every barrier exchange.

    Rides the ``("ok", value)`` pipe response of the ``advance`` command —
    no extra sync point, and pickling cost is a few dozen bytes
    next to the relay batch it travels with.  All counts are cumulative
    since worker start; ``busy_s`` is wall time spent inside ``sim.run``
    and ``wall_s`` is wall time since the worker host was created, so
    ``1 - busy_s / wall_s`` is the barrier-wait (plus setup) fraction.
    """

    shard: int
    #: The barrier this window ran up to (exclusive horizon origin).
    barrier: float
    #: The shard simulator's clock after the window.
    clock: float
    events: int
    relays_out: int
    relays_in: int
    busy_s: float
    wall_s: float


@dataclass(frozen=True)
class Relay:
    """One cross-shard arrival to schedule in the receiving shard."""

    #: Canonical (min, max) key of the cut link this crossed.
    link: tuple[int, int]
    src: int
    dst: int
    arrive_at: float
    #: Pickled payload — a Packet (PacketRelay) or a protocol message
    #: (MessageRelay).  Pickling here (not at the pipe) guarantees the
    #: in-process LocalExchange also injects a private copy.
    blob: bytes
    #: Capture order within the producing shard — the deterministic
    #: tie-break for same-instant arrivals.
    seq: int
    #: When this transmission started serializing — the canonical ordering
    #: key the delivery sequencer uses for same-instant arrivals (the
    #: single-process engine delivers them in ascending transmission-start
    #: order; see docs/distributed.md).
    tx_start: float


class PacketRelay(Relay):
    """A data/control packet serialized onto a cut link."""


class MessageRelay(Relay):
    """A reliable-channel routing message sent over a cut link."""


def killed_in_flight(outages: tuple[float, ...], depart: float, arrive: float) -> bool:
    """Does a failure in ``(depart, arrive]`` destroy this transmission?

    Strict at departure: a failure at exactly the departure instant has
    already executed (failure events are scheduled at setup, so they sort
    first at equal timestamps) and the live ``link.up`` check handles it.
    Inclusive at arrival: at equal timestamps the failure still executes
    before the runtime-scheduled arrival, cancelling it.
    """
    for t in outages:
        if t > arrive:
            return False
        if t > depart:
            return True
    return False


class BoundaryChannel(_Channel):
    """Outbound direction of a cut link, relaying instead of delivering.

    Queueing, serialization, occupancy and failure drops are the inherited
    channel's.  Only the launch hook is extended: the moment a packet starts
    serializing, its relay is captured, unless a failure still to execute
    on this link falls at or before its arrival (then the sending shard's
    own channel drops it, exactly as the single-process run does).
    """

    __slots__ = ("_outbox", "_outages", "_capture_seq", "_fails_seen")

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        src: int,
        dst: int,
        outbox: list,
        outages: tuple[float, ...],
        capture_seq: "itertools.count[int]",
    ) -> None:
        super().__init__(sim, link, src, dst)
        self._outbox = outbox
        self._outages = outages
        self._capture_seq = capture_seq
        #: Failures of this link executed so far: ``_outages[_fails_seen:]``
        #: are the ones still to come (a failure at the launch instant may
        #: not have executed yet).
        self._fails_seen = 0

    def _launch(self, packet: Packet) -> None:
        super()._launch(packet)
        arrive_at = self._tx_end + self._prop_delay
        outages, next_fail = self._outages, self._fails_seen
        if next_fail < len(outages) and outages[next_fail] <= arrive_at:
            return  # killed on the transmitter or on the wire
        self._outbox.append(
            PacketRelay(
                link=self._link.endpoints,
                src=self.src,
                dst=self.dst,
                arrive_at=arrive_at,
                blob=pickle.dumps(packet, pickle.HIGHEST_PROTOCOL),
                seq=next(self._capture_seq),
                tx_start=self._tx_start,
            )
        )

    def _arrive(self, packet: Packet) -> None:
        # The packet left this shard; the owning shard delivers the relayed
        # copy.  Only the in-flight bookkeeping ends here.
        self._in_flight.pop(0)

    def flush_on_failure(self) -> None:
        self._fails_seen += 1
        super().flush_on_failure()


def make_message_tap(
    sim: Simulator,
    link_key: tuple[int, int],
    ghost_dst: int,
    outbox: list,
    outages: tuple[float, ...],
    capture_seq: "itertools.count[int]",
) -> Callable[[int, int, object, float, float], None]:
    """Build a :attr:`Link.message_tap` relaying reliable messages to ``ghost_dst``."""

    def tap(
        src: int, dst: int, payload: object, arrive_at: float, tx_start: float
    ) -> None:
        if dst != ghost_dst:
            return
        if killed_in_flight(outages, sim.now, arrive_at):
            # The session dies with the link before delivery; the sending
            # shard's _on_link_fail cancels its local copy identically.
            return
        outbox.append(
            MessageRelay(
                link=link_key,
                src=src,
                dst=dst,
                arrive_at=arrive_at,
                blob=pickle.dumps(payload, pickle.HIGHEST_PROTOCOL),
                seq=next(capture_seq),
                tx_start=tx_start,
            )
        )

    return tap
