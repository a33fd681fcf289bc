"""Structured trace records and the trace bus.

The paper's methodology is trace-driven: it studies "the forwarding and
routing trace files" to attribute every drop and loop to a cause.  We mirror
that with typed records published on a :class:`TraceBus`.  Consumers that
need the records themselves (convergence clocks, monitors) subscribe to the
kinds they care about; counts come from the always-on
:class:`TraceCounters` and the nodes' drop counters, so nothing subscribes
just to count.  The bus keeps nothing, so large sweeps stay cheap.  A run
that wants its records afterwards attaches a
:class:`~repro.obs.flight.FlightRecorder`, the one in-memory trace store.

Hot-path contract: producers (``Node``/``Link``/protocols) must bump the
always-on integer :class:`TraceCounters` and consult the per-kind
``wants_*`` guard *before* constructing a record::

    bus.counters.delivers += 1
    if bus.wants_packet:
        bus.publish(PacketRecord(...))

When nothing subscribed to a kind, no record object is ever allocated — the
whole trace layer costs one integer increment per event.  Collectors
therefore MUST register through :meth:`TraceBus.subscribe` (which flips the
guard) rather than wrapping ``publish``.
"""

from __future__ import annotations

import enum
from typing import Callable, NamedTuple, Optional

__all__ = [
    "DropCause",
    "PacketRecord",
    "RouteChangeRecord",
    "LinkEventRecord",
    "MessageRecord",
    "TraceCounters",
    "TraceBus",
]


class DropCause(enum.Enum):
    """Why a data packet died.  Mirrors the paper's drop attribution."""

    NO_ROUTE = "no_route"  # router had no next hop (path switch-over period)
    TTL_EXPIRED = "ttl_expired"  # routing loop consumed the TTL
    QUEUE_OVERFLOW = "queue_overflow"  # drop-tail queue was full
    LINK_DOWN = "link_down"  # in flight on (or sent into) a failed link


# Records are NamedTuples, not frozen dataclasses: construction is the trace
# layer's real hot-path cost (one record per packet event when a recorder is
# attached), and tuple.__new__ is ~4x cheaper than a frozen dataclass
# __init__'s per-field object.__setattr__ calls.  Hot producers (Node,
# set_next_hop) construct them positionally for the same reason.


class PacketRecord(NamedTuple):
    """One packet lifecycle event.

    ``kind`` is one of ``"send"`` (entered the network at the source),
    ``"forward"`` (relayed by a router), ``"deliver"`` (reached the sink) or
    ``"drop"``.  ``dst`` is the packet's destination node, letting an
    after-the-fact autopsy reconstruct the FIB entry each hop consulted
    (None for records written before the field existed).
    """

    time: float
    kind: str
    packet_id: int
    node: int
    flow_id: int
    ttl: int
    cause: Optional[DropCause] = None
    dst: Optional[int] = None


class RouteChangeRecord(NamedTuple):
    """A node's FIB next hop for ``dest`` changed (None = unreachable).

    ``cause`` attributes the change to the control-plane event that applied
    it: ``("message", sender)`` for an update from a neighbor,
    ``("link_down"/"link_up", neighbor)`` for failure-detection callbacks,
    ``("timeout", dest)`` for route aging, ``("damping_reuse", dest)`` for a
    damped route coming back, ``("spf_recompute", None)`` and friends for
    deferred recomputation.  None when the change happened outside any
    attributed scope (warm start, hand-set FIBs).
    """

    time: float
    node: int
    dest: int
    old_next_hop: Optional[int]
    new_next_hop: Optional[int]
    cause: Optional[tuple[str, Optional[int]]] = None


class LinkEventRecord(NamedTuple):
    """A link changed operational state (``up`` True/False)."""

    time: float
    node_a: int
    node_b: int
    up: bool


class MessageRecord(NamedTuple):
    """A routing-protocol message was sent (for overhead accounting).

    ``size_bytes`` is the on-the-wire size (0 when the sender did not
    report it).
    """

    time: float
    sender: int
    receiver: int
    protocol: str
    n_routes: int
    is_withdrawal: bool = False
    size_bytes: int = 0


#: The four trace kinds, in hot-path order.
TRACE_KINDS = ("packet", "route", "link", "message")

_KIND_OF_TYPE: dict[type, str] = {
    PacketRecord: "packet",
    RouteChangeRecord: "route",
    LinkEventRecord: "link",
    MessageRecord: "message",
}


class TraceCounters:
    """Always-on integer event counters, bumped even when tracing is off.

    These are the cheap aggregate view of the packet/routing activity a bus
    would have seen: producers increment them unconditionally (one integer
    add), independent of whether any record object was constructed.  A
    run's message, withdrawal and byte counts are read off them (see
    :func:`repro.metrics.counters.tally`).
    """

    __slots__ = (
        "sends",
        "forwards",
        "delivers",
        "drops",
        "route_changes",
        "link_events",
        "messages",
        "withdrawals",
        "message_bytes",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.sends = 0
        self.forwards = 0
        self.delivers = 0
        self.drops = 0
        self.route_changes = 0
        self.link_events = 0
        self.messages = 0
        self.withdrawals = 0
        self.message_bytes = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"TraceCounters({body})"


class TraceBus:
    """Publish/subscribe hub for trace records, organized per kind.

    The bus keeps nothing: a record reaches a handler only through
    :meth:`subscribe`.

    The ``wants_packet`` / ``wants_route`` / ``wants_link`` / ``wants_message``
    attributes are the hot-path guards: True iff some subscriber would
    observe a record of that kind.  They are plain booleans (one attribute
    load to check) recomputed on every subscribe/unsubscribe.
    """

    __slots__ = (
        "_subs",
        "_packet_subs",
        "_route_subs",
        "_link_subs",
        "_message_subs",
        "wants_packet",
        "wants_route",
        "wants_link",
        "wants_message",
        "counters",
    )

    def __init__(self) -> None:
        self._subs: dict[str, list[Callable[[object], None]]] = {
            kind: [] for kind in TRACE_KINDS
        }
        # Aliases of the _subs lists, cached as slots so ``publish`` skips a
        # dict lookup per record.  subscribe/unsubscribe mutate the lists in
        # place, so the aliases never go stale.
        self._packet_subs = self._subs["packet"]
        self._route_subs = self._subs["route"]
        self._link_subs = self._subs["link"]
        self._message_subs = self._subs["message"]
        self.counters = TraceCounters()
        self._refresh_guards()

    def _refresh_guards(self) -> None:
        self.wants_packet = bool(self._packet_subs)
        self.wants_route = bool(self._route_subs)
        self.wants_link = bool(self._link_subs)
        self.wants_message = bool(self._message_subs)

    # ----------------------------------------------------------- subscribing

    def subscribe(self, kind: str, handler: Callable[[object], None]) -> None:
        """Call ``handler(record)`` for every published record of ``kind``,
        one of :data:`TRACE_KINDS`."""
        if kind not in self._subs:
            raise ValueError(f"unknown trace kind {kind!r}")
        self._subs[kind].append(handler)
        self._refresh_guards()

    def unsubscribe(self, kind: str, handler: Callable[[object], None]) -> None:
        """Remove a previously registered ``handler`` for ``kind``.

        Recomputes the ``wants_*`` guards, so detaching the last subscriber
        of a kind returns its hot path to the zero-allocation regime.
        Long-lived processes that attach subscribers per run (see
        :meth:`repro.obs.flight.FlightRecorder.close`) must use this rather
        than leaking dead subscribers.  Raises ``ValueError`` if the
        handler is not currently subscribed.
        """
        if kind not in self._subs:
            raise ValueError(f"unknown trace kind {kind!r}")
        try:
            self._subs[kind].remove(handler)
        except ValueError:
            raise ValueError(
                f"handler {handler!r} is not subscribed to {kind!r}"
            ) from None
        self._refresh_guards()

    def close(self) -> None:
        """Drop every subscription: a subscriber's bound method holds its
        collector, which often holds the bus back.  The counters stay."""
        for subscribers in self._subs.values():
            subscribers.clear()
        self._refresh_guards()

    # ------------------------------------------------------------ publishing

    def publish(self, record: object) -> None:
        """Dispatch a record to its kind's subscribers."""
        cls = type(record)
        if cls is PacketRecord:
            subscribers = self._packet_subs
        elif cls is RouteChangeRecord:
            subscribers = self._route_subs
        elif cls is LinkEventRecord:
            subscribers = self._link_subs
        elif cls is MessageRecord:
            subscribers = self._message_subs
        else:
            return
        for handler in subscribers:
            handler(record)
