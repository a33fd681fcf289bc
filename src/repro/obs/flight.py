"""Packet flight recorder: complete trace recordings, autopsies, causal timelines.

The paper's results are *explanations* — which packets died in a transient
loop, which update message flipped which FIB entry — not just counts.  This
module is the forensic half of the observability layer:

* :class:`FlightRecorder` — one list per trace kind, subscribed to the
  :class:`~repro.sim.tracing.TraceBus` through the same ``wants_*`` guard
  discipline every collector uses, keeping every record of the run.
  Detached, it costs nothing: no subscription, no guard flip, no record
  allocation on the packet hot path (the golden on/off test pins
  bit-identical results).
* :func:`packet_autopsy` — stitches one packet's send/forward/deliver/drop
  records into a hop-by-hop walk with drop cause, loop detection, and the
  FIB entry each hop consulted.
* :func:`build_causal_timeline` — links routing-protocol messages to the
  FIB changes they triggered (via the ``cause`` field threaded through
  ``routing.base``), reconstructing the update wave from failure to
  convergence with per-node first/last-change timestamps.
* Post-mortem dumps — a versioned JSON *ticket* naming the run (its kind,
  protocol, degree, seed and ``ExperimentConfig``) and the result it gave,
  written when a validation monitor fires.  Runs are deterministic, so the
  ticket holds no records: :func:`repro.experiments.scenario.replay`
  re-runs it with a recorder.  :func:`check_dump` is its self-validator,
  mirroring :func:`repro.obs.report.check_report`.
* :func:`perfetto_trace` — Chrome trace-event JSON viewable in Perfetto
  (``pid``/``tid`` map to node ids, ``ts`` is microseconds).

See ``docs/tracing.md`` for the ticket schema and replay.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Optional

from ..metrics.loops import first_loop
from ..records import COUNT, INT, OBJECT, TEXT, check_envelope, check_fields
from ..records import read_json, write_json
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
    "DUMP_KIND",
    "DUMP_RUNS",
    "DUMP_SCHEMA_VERSION",
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
    "check_dump",
    "perfetto_trace",
    "write_perfetto",
]

DUMP_SCHEMA_VERSION = 2
DUMP_KIND = "repro-flight-dump"
#: The runs a ticket can name (``ScenarioRun.kind``).
DUMP_RUNS = ("scenario", "churn")


class FlightRecorder:
    """Complete recording of a run's trace records, one list per kind.

    Attach to a bus to start recording (this flips the bus's ``wants_*``
    guards on, like any subscriber); ``close()`` detaches and returns the
    hot path to the zero-allocation regime while keeping the records
    readable.  Works as a context manager.
    """

    def __init__(self) -> None:
        self.streams: dict[str, list] = {kind: [] for kind in TRACE_KINDS}
        self._bus: Optional[TraceBus] = None

    @property
    def attached(self) -> bool:
        return self._bus is not None

    def attach(self, bus: TraceBus) -> None:
        """Subscribe every stream to ``bus`` (exactly one bus at a time)."""
        if self._bus is not None:
            raise RuntimeError("recorder is already attached to a bus")
        self._bus = bus
        for kind, stream in self.streams.items():
            # Subscribe the list's C-level append: a Python-level wrapper
            # would roughly double the recorder's per-record cost (see
            # benchmarks/bench_overhead.py).
            bus.subscribe(kind, stream.append)

    def close(self) -> None:
        """Unsubscribe from the bus (idempotent); records stay readable."""
        if self._bus is None:
            return
        for kind, stream in self.streams.items():
            self._bus.unsubscribe(kind, stream.append)
        self._bus = None

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- analysis

    def records(self, kind: str) -> list:
        """Every record of ``kind`` published while attached, oldest first."""
        return list(self.streams[kind])

    def packet_ids(self) -> list[int]:
        """Distinct packet ids recorded, first-seen order."""
        return list(dict.fromkeys(r.packet_id for r in self.streams["packet"]))

    def packet_autopsy(self, packet_id: int) -> "PacketAutopsy":
        return packet_autopsy(
            self.streams["packet"], packet_id, route_changes=self.streams["route"]
        )

    def autopsies(self) -> dict[int, "PacketAutopsy"]:
        return packet_autopsies(
            self.streams["packet"], route_changes=self.streams["route"]
        )

    def timeline(
        self, since: Optional[float] = None, dest: Optional[int] = None
    ) -> "CausalTimeline":
        return build_causal_timeline(
            self.streams["route"],
            messages=self.streams["message"],
            link_events=self.streams["link"],
            since=since,
            dest=dest,
        )


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
    #: no route records available, or no entry installed yet).
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

    @property
    def n_hops(self) -> int:
        return max(0, len(self.path) - 1)


def packet_autopsy(
    packets: Iterable[PacketRecord],
    packet_id: int,
    route_changes: Iterable[RouteChangeRecord] = (),
) -> PacketAutopsy:
    """Stitch one packet's records into a hop-by-hop account.

    ``packets`` may contain many interleaved packets (a recording, a
    trace file); only records matching ``packet_id`` are used.  Pass the
    matching ``route_changes`` to also reconstruct the FIB entry each hop
    consulted.  Raises ``KeyError`` if the packet left no records at all.
    """
    events = [r for r in packets if r.packet_id == packet_id]
    if not events:
        raise KeyError(f"no trace records for packet {packet_id}")
    events.sort(key=lambda r: r.time)  # stable: preserves publish order at ties
    return _autopsy_from_events(packet_id, events, _fib_index(route_changes))


def packet_autopsies(
    packets: Iterable[PacketRecord],
    route_changes: Iterable[RouteChangeRecord] = (),
) -> dict[int, PacketAutopsy]:
    """Autopsies for every packet present in ``packets``, one pass."""
    by_id: dict[int, list[PacketRecord]] = {}
    for record in packets:
        by_id.setdefault(record.packet_id, []).append(record)
    fibs = _fib_index(route_changes)
    out: dict[int, PacketAutopsy] = {}
    for pid, events in by_id.items():
        events.sort(key=lambda r: r.time)
        out[pid] = _autopsy_from_events(pid, events, fibs)
    return out


#: ``(node, dest) -> (times, next hops)`` of every change, in input order,
#: with each time lowered to the minimum of it and every later one.
_FibIndex = dict[tuple[int, int], tuple[list[float], list[Optional[int]]]]


def _fib_index(route_changes: Iterable[RouteChangeRecord]) -> _FibIndex:
    index: _FibIndex = {}
    for r in route_changes:
        times, hops = index.setdefault((r.node, r.dest), ([], []))
        times.append(r.time)
        hops.append(r.new_next_hop)
    for times, _ in index.values():
        for i in range(len(times) - 2, -1, -1):
            times[i] = min(times[i], times[i + 1])
    return index


def _fib_at(fibs: _FibIndex, node: int, dest: int, when: float) -> Optional[int]:
    """Next hop ``node`` held for ``dest`` at ``when``: the last change in
    input order made at or before ``when``.  The suffix minima are sorted,
    and the last one at or below ``when`` sits on exactly that change."""
    times, hops = fibs.get((node, dest), ((), ()))
    i = bisect_right(times, when)
    return hops[i - 1] if i else None


def _autopsy_from_events(
    packet_id: int,
    events: list[PacketRecord],
    fibs: _FibIndex,
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
                _fib_at(fibs, r.node, dst, r.time)
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
    run: str, protocol: str, degree: int, seed: int, config, result: dict
) -> dict:
    """The post-mortem ticket naming one run.

    ``run`` is the :class:`~repro.experiments.scenario.ScenarioRun` kind
    (one of :data:`DUMP_RUNS`), ``config`` the run's
    :class:`~repro.experiments.config.ExperimentConfig` and ``result`` its
    ``scenario_to_dict``, violations included.  The ticket holds no trace
    records: :func:`repro.experiments.scenario.replay` re-runs it.
    """
    return {
        "schema_version": DUMP_SCHEMA_VERSION,
        "kind": DUMP_KIND,
        "run": run,
        "protocol": protocol,
        "degree": degree,
        "seed": seed,
        "config": config.to_dict(),
        "fingerprint": config.fingerprint(),
        "result": result,
    }


def save_dump(dump: dict, path: str) -> None:
    """Write a dump as JSON.  ``save -> load -> save`` is byte-identical."""
    write_json(dump, path, newline=True)


def load_dump(path: str) -> dict:
    """Read a dump written by :func:`save_dump`; another version is an
    :class:`~repro.records.ArtifactError`, and :func:`check_dump` judges
    the rest."""
    return read_json(path, "flight dump", "schema_version", DUMP_SCHEMA_VERSION)


_DUMP_ENVELOPE = {"schema_version": DUMP_SCHEMA_VERSION, "kind": DUMP_KIND}
_DUMP_SPEC = {
    "run": (lambda v: v in DUMP_RUNS, f"one of {list(DUMP_RUNS)}"),
    "protocol": TEXT,
    "degree": COUNT,
    "seed": INT,
    "config": OBJECT,
    "fingerprint": TEXT,
    "result": OBJECT,
}


def check_dump(dump: object) -> list[str]:
    """Validate a flight dump's shape; returns a list of problems (empty = ok).

    Whether the ticket's config builds and its result replays is
    :func:`repro.experiments.scenario.replay`'s to judge.
    """
    if not isinstance(dump, dict):
        return ["dump must be a JSON object"]
    problems: list[str] = []
    check_envelope(dump, _DUMP_ENVELOPE, "", problems)
    check_fields(dump, _DUMP_SPEC, "dump", problems)
    return problems


# --------------------------------------------------------------------------
# Chrome trace-event export (Perfetto)
# --------------------------------------------------------------------------


def trace_us(t: float) -> float:
    """Simulated seconds as trace-event microseconds."""
    return round(t * 1e6, 3)


def lane_name(pid: int, name: str) -> dict:
    """The metadata event that names lane ``pid``."""
    args = {"name": name}
    return dict(name="process_name", ph="M", ts=0, pid=pid, tid=pid, args=args)


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
                "ts": trace_us(r.time),
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
                "ts": trace_us(r.time),
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
                "ts": trace_us(m.time),
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
                "ts": trace_us(e.time),
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

    metadata = [lane_name(node, f"node {node}") for node in sorted(nodes)]
    metadata += extra_metadata
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_perfetto(trace: dict, path: str) -> None:
    """Write a :func:`perfetto_trace` document to ``path``."""
    write_json(trace, path, newline=True)
