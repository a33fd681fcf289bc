"""Packet flight recorder: bounded trace rings, autopsies, causal timelines.

The paper's results are *explanations* — which packets died in a transient
loop, which update message flipped which FIB entry — not just counts.  This
module is the forensic half of the observability layer:

* :class:`FlightRecorder` — fixed-size ring buffers, one per trace kind,
  subscribed to the :class:`~repro.sim.tracing.TraceBus` through the same
  ``wants_*`` guard discipline every collector uses.  Detached, it costs
  nothing: no subscription, no guard flip, no record allocation on the
  packet hot path (the golden on/off test pins bit-identical results).
* :func:`packet_autopsy` — stitches one packet's send/forward/deliver/drop
  records into a hop-by-hop walk with drop cause, loop detection, and the
  FIB entry each hop consulted.
* :func:`build_causal_timeline` — links routing-protocol messages to the
  FIB changes they triggered (via the ``cause`` field threaded through
  ``routing.base``), reconstructing the update wave from failure to
  convergence with per-node first/last-change timestamps.
* Post-mortem dumps — a versioned JSON snapshot of the rings written when a
  validation monitor fires, with a :func:`check_dump` self-validator
  mirroring :func:`repro.obs.report.check_report`.
* :func:`perfetto_trace` — Chrome trace-event JSON viewable in Perfetto
  (``pid``/``tid`` map to node ids, ``ts`` is microseconds).

See ``docs/tracing.md`` for ring sizing and the dump schema.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from ..metrics.loops import first_loop
from ..metrics.traceio import _decode, _encode
from ..records import COUNT, LIST, NUM, OBJECT, POSITIVE, check_envelope, check_fields
from ..records import is_int, nullable, read_json, write_json
from ..sim.tracing import (
    TRACE_KINDS,
    DropCause,
    LinkEventRecord,
    MessageRecord,
    PacketRecord,
    RouteChangeRecord,
    TraceBus,
)

__all__ = [
    "DEFAULT_CAPACITIES",
    "DUMP_KIND",
    "DUMP_SCHEMA_VERSION",
    "Ring",
    "FlightRecorder",
    "Hop",
    "PacketAutopsy",
    "packet_autopsy",
    "packet_autopsies",
    "format_autopsy",
    "FibFlip",
    "NodeActivity",
    "WaveSummary",
    "CausalTimeline",
    "build_causal_timeline",
    "format_causal_timeline",
    "build_dump",
    "save_dump",
    "load_dump",
    "dump_records",
    "check_dump",
    "perfetto_trace",
    "write_perfetto",
]

#: Default ring capacities (records kept per kind).  Sized for one scenario:
#: a 5x5 quick mesh warm start installs ~600 routes and a paper-scale
#: post-failure window generates a few thousand packet events; link
#: transitions are rare.  See docs/tracing.md "Ring sizing".
DEFAULT_CAPACITIES: dict[str, int] = {
    "packet": 8192,
    "route": 4096,
    "link": 512,
    "message": 4096,
}

DUMP_SCHEMA_VERSION = 1
DUMP_KIND = "repro-flight-dump"


class Ring:
    """Record buffer that keeps exactly the newest ``capacity`` appends.

    Logically a ring; physically an append-only list trimmed to capacity on
    every read (``records``/``len``/``iter``/``evicted``/:meth:`trim`).  The
    split exists for the hot path: :attr:`push` is the raw C-level
    ``list.append``, which is what :class:`FlightRecorder` subscribes to the
    bus — a Python-level ``append`` wrapper would roughly double the
    recorder's per-record cost (see benchmarks/bench_overhead.py).  The
    price is that peak memory between reads is the run's record volume, not
    ``capacity``; scenario-scoped recordings stay small, and long-lived
    users can call :meth:`trim` periodically.
    """

    __slots__ = ("capacity", "push", "_evicted", "_buf")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"ring capacity must be > 0, got {capacity}")
        self.capacity = capacity
        self._evicted = 0
        # The list object must never be rebound: ``push`` (and any bus
        # subscription holding it) aliases its bound C append forever.
        self._buf: list = []
        self.push = self._buf.append

    def append(self, record: object) -> None:
        """Append one record (convenience wrapper around :attr:`push`)."""
        self.push(record)

    def trim(self) -> None:
        """Drop everything but the newest ``capacity`` records."""
        buf = self._buf
        overflow = len(buf) - self.capacity
        if overflow > 0:
            del buf[:overflow]
            self._evicted += overflow

    @property
    def appended(self) -> int:
        """Total records ever appended (exact, trim-independent)."""
        return self._evicted + len(self._buf)

    @property
    def evicted(self) -> int:
        """How many records have been pushed out by newer ones."""
        self.trim()
        return self._evicted

    def records(self) -> list:
        """Snapshot of the retained records, oldest first."""
        self.trim()
        return list(self._buf)

    def clear(self) -> None:
        self._buf.clear()
        self._evicted = 0

    def __len__(self) -> int:
        self.trim()
        return len(self._buf)

    def __iter__(self):
        self.trim()
        return iter(self._buf)


class FlightRecorder:
    """Bounded, always-consistent recording of a run's trace records.

    Attach to a bus to start recording (this flips the bus's ``wants_*``
    guards on, like any subscriber); ``close()`` detaches and returns the
    hot path to the zero-allocation regime while keeping the rings readable.
    Works as a context manager.
    """

    def __init__(self, capacities: Optional[Mapping[str, int]] = None) -> None:
        sizes = dict(DEFAULT_CAPACITIES)
        if capacities:
            unknown = set(capacities) - set(TRACE_KINDS)
            if unknown:
                raise ValueError(f"unknown trace kinds {sorted(unknown)}")
            sizes.update(capacities)
        self.rings: dict[str, Ring] = {
            kind: Ring(sizes[kind]) for kind in TRACE_KINDS
        }
        self._bus: Optional[TraceBus] = None

    @property
    def attached(self) -> bool:
        return self._bus is not None

    def attach(self, bus: TraceBus) -> None:
        """Subscribe every ring to ``bus`` (exactly one bus at a time)."""
        if self._bus is not None:
            raise RuntimeError("recorder is already attached to a bus")
        self._bus = bus
        for kind, ring in self.rings.items():
            # Subscribe the C-level push, not the Python append wrapper: at
            # flight-recorder record rates the wrapper call itself is the
            # single largest cost (see Ring docstring).
            bus.subscribe(kind, ring.push)

    def close(self) -> None:
        """Unsubscribe from the bus (idempotent); rings stay readable."""
        if self._bus is None:
            return
        for kind, ring in self.rings.items():
            self._bus.unsubscribe(kind, ring.push)
            ring.trim()
        self._bus = None

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- analysis

    def records(self, kind: str) -> list:
        """Retained records of ``kind``, oldest first."""
        return self.rings[kind].records()

    def packet_ids(self) -> list[int]:
        """Distinct packet ids present in the packet ring, first-seen order."""
        seen: dict[int, None] = {}
        for record in self.rings["packet"]:
            seen.setdefault(record.packet_id, None)
        return list(seen)

    def packet_autopsy(self, packet_id: int) -> "PacketAutopsy":
        return packet_autopsy(
            self.records("packet"), packet_id, route_changes=self.records("route")
        )

    def autopsies(self) -> dict[int, "PacketAutopsy"]:
        return packet_autopsies(
            self.records("packet"), route_changes=self.records("route")
        )

    def timeline(
        self, since: Optional[float] = None, dest: Optional[int] = None
    ) -> "CausalTimeline":
        return build_causal_timeline(
            self.records("route"),
            messages=self.records("message"),
            link_events=self.records("link"),
            since=since,
            dest=dest,
        )

    def snapshot(
        self,
        meta: Optional[dict] = None,
        violations: Iterable[str] = (),
        counters: Optional[Mapping[str, int]] = None,
    ) -> dict:
        """The post-mortem dump document (see :func:`build_dump`)."""
        return build_dump(self, meta=meta, violations=violations, counters=counters)


# --------------------------------------------------------------------------
# Per-packet lifecycle reconstruction
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Hop:
    """One forwarding decision in a packet's life."""

    time: float
    node: int
    kind: str  # "send" | "forward" | "deliver" | "drop"
    ttl: int
    #: FIB next hop this node held for the packet's destination at this
    #: instant, reconstructed from route-change records (None = unknown —
    #: no route records available, or the entry predates the route ring).
    fib_next_hop: Optional[int] = None


@dataclass(frozen=True)
class PacketAutopsy:
    """Everything reconstructable about one packet's walk."""

    packet_id: int
    flow_id: int
    dst: Optional[int]
    outcome: str  # "delivered" | "dropped" | "in_flight"
    drop_cause: Optional[DropCause]
    path: tuple[int, ...]  # node visits, consecutive duplicates collapsed
    loop: Optional[tuple[int, ...]]  # first node cycle, e.g. (7, 8, 7)
    hops: tuple[Hop, ...]
    #: True when the earliest record is not the "send" (ring evicted it).
    truncated: bool

    @property
    def n_hops(self) -> int:
        return max(0, len(self.path) - 1)


def packet_autopsy(
    packets: Iterable[PacketRecord],
    packet_id: int,
    route_changes: Iterable[RouteChangeRecord] = (),
) -> PacketAutopsy:
    """Stitch one packet's records into a hop-by-hop account.

    ``packets`` may contain many interleaved packets (a ring snapshot, a
    trace file); only records matching ``packet_id`` are used.  Pass the
    matching ``route_changes`` to also reconstruct the FIB entry each hop
    consulted.  Raises ``KeyError`` if the packet left no records at all.
    """
    events = [r for r in packets if r.packet_id == packet_id]
    if not events:
        raise KeyError(f"no trace records for packet {packet_id}")
    events.sort(key=lambda r: r.time)  # stable: preserves publish order at ties
    return _autopsy_from_events(packet_id, events, list(route_changes))


def packet_autopsies(
    packets: Iterable[PacketRecord],
    route_changes: Iterable[RouteChangeRecord] = (),
) -> dict[int, PacketAutopsy]:
    """Autopsies for every packet present in ``packets``, one pass."""
    by_id: dict[int, list[PacketRecord]] = {}
    for record in packets:
        by_id.setdefault(record.packet_id, []).append(record)
    routes = list(route_changes)
    out: dict[int, PacketAutopsy] = {}
    for pid, events in by_id.items():
        events.sort(key=lambda r: r.time)
        out[pid] = _autopsy_from_events(pid, events, routes)
    return out


def _fib_at(
    routes: list[RouteChangeRecord], node: int, dest: int, when: float
) -> Optional[int]:
    """Next hop ``node`` held for ``dest`` at ``when`` (last change wins)."""
    hop: Optional[int] = None
    known = False
    for r in routes:
        if r.node == node and r.dest == dest and r.time <= when:
            hop = r.new_next_hop
            known = True
    return hop if known else None


def _autopsy_from_events(
    packet_id: int,
    events: list[PacketRecord],
    routes: list[RouteChangeRecord],
) -> PacketAutopsy:
    terminal = events[-1]
    outcome = "in_flight"
    drop_cause = None
    for record in events:
        if record.kind == "deliver":
            outcome = "delivered"
        elif record.kind == "drop":
            outcome = "dropped"
            drop_cause = record.cause
    dst = next((r.dst for r in events if r.dst is not None), None)

    path: list[int] = []
    for record in events:
        if not path or path[-1] != record.node:
            path.append(record.node)

    hops = tuple(
        Hop(
            time=r.time,
            node=r.node,
            kind=r.kind,
            ttl=r.ttl,
            fib_next_hop=(
                _fib_at(routes, r.node, dst, r.time)
                if dst is not None and r.kind in ("send", "forward")
                else None
            ),
        )
        for r in events
    )
    return PacketAutopsy(
        packet_id=packet_id,
        flow_id=events[0].flow_id,
        dst=dst,
        outcome=outcome,
        drop_cause=drop_cause,
        path=tuple(path),
        loop=first_loop(path),
        hops=hops,
        truncated=events[0].kind != "send",
    )


def format_autopsy(autopsy: PacketAutopsy, origin: float = 0.0) -> str:
    """Human-readable account of one packet's walk."""
    head = (
        f"packet {autopsy.packet_id} (flow {autopsy.flow_id}"
        + (f", dst {autopsy.dst}" if autopsy.dst is not None else "")
        + f"): {autopsy.outcome}"
    )
    if autopsy.drop_cause is not None:
        head += f" ({autopsy.drop_cause.value})"
    head += f" after {autopsy.n_hops} hop(s)"
    if autopsy.truncated:
        head += "  [record start evicted from ring]"
    lines = [head]
    for hop in autopsy.hops:
        fib = f"  fib->{hop.fib_next_hop}" if hop.fib_next_hop is not None else ""
        lines.append(
            f"  t={hop.time - origin:+9.3f}s  {hop.kind:<8} @ node "
            f"{hop.node:<4} ttl={hop.ttl}{fib}"
        )
    if autopsy.loop is not None:
        lines.append("  loop: " + " -> ".join(map(str, autopsy.loop)))
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Causal convergence timeline
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FibFlip:
    """One FIB change and the control-plane event attributed to it."""

    record: RouteChangeRecord
    #: The routing message that triggered the change (matched through the
    #: record's ``("message", sender)`` cause); None for link/timer causes
    #: or when the message record was not captured.
    trigger: Optional[MessageRecord]


@dataclass(frozen=True)
class NodeActivity:
    """When one node's FIB first and last changed during the window."""

    node: int
    first_change: float
    last_change: float
    n_changes: int


@dataclass(frozen=True)
class WaveSummary:
    """The reconvergence wave attributed to one topology event.

    A run with several link events (churn, flaps) has overlapping
    reconvergence waves; each event's window runs from its own instant to
    the next event's (the last to the end of the capture), and the FIB
    changes falling inside are its wave.  ``first_change``/``last_change``
    are ``None`` when the window was quiet.
    """

    event: LinkEventRecord
    first_change: Optional[float]
    last_change: Optional[float]
    n_changes: int


@dataclass(frozen=True)
class CausalTimeline:
    """The update wave: topology events -> per-node FIB churn -> quiescence."""

    since: Optional[float]
    links: tuple[LinkEventRecord, ...]
    flips: tuple[FibFlip, ...]
    #: Per-node activity, ordered by first change (the wave front).
    wave: tuple[NodeActivity, ...]
    #: Per-link-event reconvergence waves, in event order.
    waves: tuple[WaveSummary, ...] = ()

    @property
    def first_change(self) -> Optional[float]:
        return self.flips[0].record.time if self.flips else None

    @property
    def converged_at(self) -> Optional[float]:
        """Time of the last FIB change in the window (None if none)."""
        return self.flips[-1].record.time if self.flips else None


def build_causal_timeline(
    route_changes: Iterable[RouteChangeRecord],
    messages: Iterable[MessageRecord] = (),
    link_events: Iterable[LinkEventRecord] = (),
    since: Optional[float] = None,
    dest: Optional[int] = None,
) -> CausalTimeline:
    """Reconstruct the causally annotated update wave.

    Every route change whose cause is ``("message", sender)`` is linked to
    the newest captured message from that sender to that node at or before
    the change (message records carry send time; the change happens on
    arrival, so "latest at-or-before" is the triggering message as long as
    per-adjacency delivery is FIFO — which links and reliable channels are).
    """
    flips_src = [
        r
        for r in route_changes
        if (since is None or r.time >= since) and (dest is None or r.dest == dest)
    ]
    flips_src.sort(key=lambda r: r.time)
    links = tuple(
        e for e in link_events if since is None or e.time >= since
    )

    by_adjacency: dict[tuple[int, int], list[MessageRecord]] = {}
    for m in messages:
        by_adjacency.setdefault((m.sender, m.receiver), []).append(m)
    for history in by_adjacency.values():
        history.sort(key=lambda m: m.time)

    flips = []
    for r in flips_src:
        trigger = None
        if r.cause is not None and r.cause[0] == "message" and r.cause[1] is not None:
            history = by_adjacency.get((r.cause[1], r.node), ())
            for m in history:
                if m.time <= r.time:
                    trigger = m
                else:
                    break
        flips.append(FibFlip(record=r, trigger=trigger))

    activity: dict[int, NodeActivity] = {}
    for flip in flips:
        r = flip.record
        prior = activity.get(r.node)
        if prior is None:
            activity[r.node] = NodeActivity(r.node, r.time, r.time, 1)
        else:
            activity[r.node] = NodeActivity(
                r.node, prior.first_change, r.time, prior.n_changes + 1
            )
    wave = tuple(
        sorted(activity.values(), key=lambda a: (a.first_change, a.node))
    )

    # Attribute FIB churn to link events: event i owns [time_i, time_{i+1}),
    # the last window running to the end of the captured changes.
    ordered = sorted(links, key=lambda e: e.time)
    waves = []
    for i, event in enumerate(ordered):
        window_end = (
            ordered[i + 1].time if i + 1 < len(ordered) else float("inf")
        )
        in_window = [
            f.record.time
            for f in flips
            if event.time <= f.record.time < window_end
        ]
        waves.append(
            WaveSummary(
                event=event,
                first_change=in_window[0] if in_window else None,
                last_change=in_window[-1] if in_window else None,
                n_changes=len(in_window),
            )
        )
    return CausalTimeline(
        since=since, links=links, flips=tuple(flips), wave=wave,
        waves=tuple(waves),
    )


def _describe_cause(flip: FibFlip, origin: float) -> str:
    cause = flip.record.cause
    if cause is None:
        return ""
    kind, peer = cause
    if kind == "message":
        text = f"message from {peer}"
        if flip.trigger is not None:
            text += (
                f" ({flip.trigger.protocol}"
                f"{' withdrawal' if flip.trigger.is_withdrawal else ''}"
                f" sent t={flip.trigger.time - origin:+.3f}s)"
            )
        return f"  [{text}]"
    if peer is None:
        return f"  [{kind}]"
    return f"  [{kind} {peer}]"


def format_causal_timeline(
    timeline: CausalTimeline, origin: float = 0.0, max_events: int = 60
) -> str:
    """Render the update wave for humans (times relative to ``origin``)."""
    lines: list[str] = []
    for e in timeline.links:
        lines.append(
            f"  t={e.time - origin:+9.3f}s  link ({e.node_a}, {e.node_b}) "
            + ("restored" if e.up else "FAILED")
        )
    shown = timeline.flips[:max_events]
    for flip in shown:
        r = flip.record
        lines.append(
            f"  t={r.time - origin:+9.3f}s  node {r.node}: dest {r.dest} "
            f"{r.old_next_hop} -> {r.new_next_hop}"
            + _describe_cause(flip, origin)
        )
    if len(timeline.flips) > max_events:
        lines.append(
            f"  ... {len(timeline.flips) - max_events} more FIB changes omitted"
        )
    if timeline.wave:
        lines.append("  update wave (per-node first/last FIB change):")
        for a in timeline.wave:
            lines.append(
                f"    node {a.node:<4} first t={a.first_change - origin:+8.3f}s"
                f"  last t={a.last_change - origin:+8.3f}s"
                f"  ({a.n_changes} change(s))"
            )
    if len(timeline.waves) > 1:
        lines.append("  per-event reconvergence waves:")
        for w in timeline.waves:
            e = w.event
            label = "restore" if e.up else "fail"
            if w.n_changes:
                lines.append(
                    f"    t={e.time - origin:+8.3f}s {label} ({e.node_a}, "
                    f"{e.node_b}): {w.n_changes} FIB change(s), "
                    f"last t={w.last_change - origin:+.3f}s"
                )
            else:
                lines.append(
                    f"    t={e.time - origin:+8.3f}s {label} ({e.node_a}, "
                    f"{e.node_b}): quiet"
                )
    if timeline.converged_at is not None:
        lines.append(
            f"  last FIB change t={timeline.converged_at - origin:+.3f}s"
        )
    return "\n".join(lines) if lines else "  (no routing activity)"


# --------------------------------------------------------------------------
# Post-mortem dumps
# --------------------------------------------------------------------------


def build_dump(
    recorder: FlightRecorder,
    meta: Optional[dict] = None,
    violations: Iterable[str] = (),
    counters: Optional[Mapping[str, int]] = None,
) -> dict:
    """Assemble the versioned post-mortem document from a recorder."""
    rings = {}
    for kind in TRACE_KINDS:
        ring = recorder.rings[kind]
        rings[kind] = {
            "capacity": ring.capacity,
            "appended": ring.appended,
            "records": [_encode(r) for r in ring],
        }
    return {
        "schema_version": DUMP_SCHEMA_VERSION,
        "kind": DUMP_KIND,
        "meta": dict(meta or {}),
        "violations": [str(v) for v in violations],
        "counters": dict(counters) if counters is not None else None,
        "rings": rings,
    }


def save_dump(dump: dict, path: str) -> None:
    """Write a dump as JSON.  ``save -> load -> save`` is byte-identical."""
    write_json(dump, path, newline=True)


def load_dump(path: str) -> dict:
    """Read a dump written by :func:`save_dump`; :func:`check_dump` judges it."""
    return read_json(path, "flight dump")


def dump_records(dump: dict) -> dict[str, list]:
    """Decode a dump's rings back into trace record objects.

    Records that no longer decode (an unknown kind from a newer writer) are
    skipped with one warning each, mirroring the sweep store's
    telemetry-record skip convention.
    """
    out: dict[str, list] = {}
    for kind, ring in dump.get("rings", {}).items():
        decoded = []
        for data in ring.get("records", ()):
            try:
                decoded.append(_decode(data))
            except ValueError as exc:
                warnings.warn(
                    f"skipping undecodable {kind!r} record in flight dump: {exc}",
                    stacklevel=2,
                )
        out[kind] = decoded
    return out


_RING_SPEC = {"capacity": POSITIVE, "appended": COUNT, "records": LIST}


def _check_ring(kind: str, ring: object, problems: list[str]) -> None:
    path = f"rings[{kind!r}]"
    if not check_fields(ring, _RING_SPEC, path, problems):
        return
    capacity, appended, records = ring["capacity"], ring["appended"], ring["records"]
    if len(records) > capacity:
        problems.append(
            f"{path}: holds {len(records)} records but capacity is {capacity}"
        )
    if len(records) > appended:
        problems.append(
            f"{path}: holds {len(records)} records but only {appended} were appended"
        )
    if appended > capacity and len(records) != capacity:
        problems.append(
            f"{path}: overflowed ({appended} appends) so it must be full, "
            f"holds {len(records)}/{capacity}"
        )
    record_spec = {"type": (lambda v: v == kind, repr(kind)), "time": NUM}
    last_time = None
    for i, data in enumerate(records):
        rpath = f"{path}.records[{i}]"
        if not check_fields(data, record_spec, rpath, problems):
            continue
        t = data["time"]
        if last_time is not None and t < last_time:
            problems.append(
                f"{rpath}: time {t} goes backwards (previous {last_time})"
            )
        last_time = t
        try:
            _decode(data)
        except ValueError as exc:
            problems.append(f"{rpath}: does not decode: {exc}")


_DUMP_ENVELOPE = {"schema_version": DUMP_SCHEMA_VERSION, "kind": DUMP_KIND}
_DUMP_SPEC = {
    "meta": OBJECT,
    "violations": (
        lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
        "a list of strings",
    ),
    "counters": nullable(OBJECT),
    "rings": OBJECT,
}


def check_dump(dump: object) -> list[str]:
    """Validate a flight dump; returns a list of problems (empty = ok)."""
    problems: list[str] = []
    if not isinstance(dump, dict):
        return ["dump must be a JSON object"]
    check_envelope(dump, _DUMP_ENVELOPE, "", problems)
    check_fields(dump, _DUMP_SPEC, "dump", problems)
    counters = dump.get("counters")
    if isinstance(counters, dict):
        for name, value in counters.items():
            if not is_int(value) or value < 0:
                problems.append(
                    f"counters[{name!r}]: must be an int >= 0, got {value!r}"
                )
    rings = dump.get("rings")
    if not isinstance(rings, dict):
        return problems
    unknown = set(rings) - set(TRACE_KINDS)
    if unknown:
        problems.append(f"rings: unknown kinds {sorted(unknown)}")
    for kind in TRACE_KINDS:
        if kind not in rings:
            problems.append(f"rings: missing kind {kind!r}")
            continue
        _check_ring(kind, rings[kind], problems)
    return problems


# --------------------------------------------------------------------------
# Chrome trace-event export (Perfetto)
# --------------------------------------------------------------------------


def _us(t: float) -> float:
    return round(t * 1e6, 3)


def perfetto_trace(
    packets: Iterable[PacketRecord] = (),
    route_changes: Iterable[RouteChangeRecord] = (),
    link_events: Iterable[LinkEventRecord] = (),
    messages: Iterable[MessageRecord] = (),
    extra: Iterable[dict] = (),
) -> dict:
    """Chrome trace-event JSON for the given records.

    Each simulated node becomes a "process" (``pid`` = ``tid`` = node id,
    named by a metadata event); packet lifecycle events, FIB changes,
    message sends, and link transitions become instant events on the node
    where they happened.  ``ts`` is microseconds and monotonic, so the file
    loads directly in Perfetto / ``chrome://tracing``.

    ``extra`` takes pre-built Chrome trace events on additional lanes —
    e.g. the per-shard window/barrier lanes from
    :func:`repro.obs.live.shard_lane_events` — on the same simulated-time
    axis.  Metadata (``ph: "M"``) events keep their position ahead of the
    merged, ts-sorted event stream.
    """
    packets = list(packets)
    route_changes = list(route_changes)
    link_events = list(link_events)
    messages = list(messages)

    nodes: set[int] = set()
    nodes.update(r.node for r in packets)
    nodes.update(r.node for r in route_changes)
    nodes.update(m.sender for m in messages)
    for e in link_events:
        nodes.add(e.node_a)
        nodes.add(e.node_b)

    events: list[dict] = []
    for r in packets:
        args = {"packet_id": r.packet_id, "flow": r.flow_id, "ttl": r.ttl}
        if r.dst is not None:
            args["dst"] = r.dst
        if r.cause is not None:
            args["cause"] = r.cause.value
        events.append(
            {
                "name": f"pkt {r.packet_id} {r.kind}",
                "cat": "packet",
                "ph": "i",
                "ts": _us(r.time),
                "pid": r.node,
                "tid": r.node,
                "s": "t",
                "args": args,
            }
        )
    for r in route_changes:
        args = {"dest": r.dest, "old": r.old_next_hop, "new": r.new_next_hop}
        if r.cause is not None:
            args["cause"] = list(r.cause)
        events.append(
            {
                "name": f"fib dest={r.dest}",
                "cat": "route",
                "ph": "i",
                "ts": _us(r.time),
                "pid": r.node,
                "tid": r.node,
                "s": "t",
                "args": args,
            }
        )
    for m in messages:
        events.append(
            {
                "name": f"{m.protocol} msg -> {m.receiver}",
                "cat": "message",
                "ph": "i",
                "ts": _us(m.time),
                "pid": m.sender,
                "tid": m.sender,
                "s": "t",
                "args": {
                    "receiver": m.receiver,
                    "n_routes": m.n_routes,
                    "withdrawal": m.is_withdrawal,
                    "bytes": m.size_bytes,
                },
            }
        )
    for e in link_events:
        events.append(
            {
                "name": f"link ({e.node_a}, {e.node_b}) "
                + ("up" if e.up else "DOWN"),
                "cat": "link",
                "ph": "i",
                "ts": _us(e.time),
                "pid": e.node_a,
                "tid": e.node_a,
                "s": "g",
                "args": {"peer": e.node_b, "up": e.up},
            }
        )
    extra_metadata: list[dict] = []
    for ev in extra:
        if ev.get("ph") == "M":
            extra_metadata.append(ev)
        else:
            events.append(ev)
    events.sort(key=lambda ev: ev["ts"])

    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "ts": 0,
            "pid": node,
            "tid": node,
            "args": {"name": f"node {node}"},
        }
        for node in sorted(nodes)
    ] + extra_metadata
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_perfetto(trace: dict, path: str) -> None:
    """Write a :func:`perfetto_trace` document to ``path``."""
    write_json(trace, path, newline=True)
