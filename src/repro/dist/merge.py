"""Merge per-shard outputs into one ``ScenarioResult``.

The merge owns only what sharding adds: counters are sums (every record is
observed by exactly one shard), and the per-shard route streams are
interleaved into one (see :func:`merge_route_records` for the tie-break,
the only genuinely order-sensitive step).  The merged stream is published
on a fresh bus to a convergence tracker, a watcher and, when validating,
the FIB-loop monitor, each subscribed as in a live run; the result is then
assembled by :func:`~repro.experiments.scenario.fold_result`, the fold a
single-process run uses.  Packet conservation is re-checked from the
shipped end-of-run state.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional

from ..experiments.scenario import EventClock, Layout, ScenarioResult, fold_result
from ..metrics.convergence import ConvergenceTracker, NetworkConvergenceWatcher
from ..net.packet import reset_packet_ids
from ..routing.catalog import protocol_spec
from ..sim.tracing import DropCause, TraceBus
from ..validation.monitors import (
    FibLoopMonitor,
    MonitorSuite,
    PacketConservationMonitor,
    Violation,
)
from .partition import Partition
from .worker import ShardOutput

__all__ = [
    "merge_results",
    "merge_route_records",
    "canonical_trace_streams",
    "shard_perfetto_trace",
    "MODE_FIELDS",
    "run_single_with_traces",
]

#: Persisted fields that legitimately differ by run mode: the sharded run
#: judges fewer monitors and writes no flight dump.
MODE_FIELDS = ("violations", "monitor_skips", "dump_path")

#: The monitors the merge re-derives offline; every other monitor of the
#: default suite needs a live simulator and is skipped by name.
_REPLAYED_MONITORS = (PacketConservationMonitor.name, FibLoopMonitor.name)
_SHARD_SKIP_REASON = "not evaluated under sharded execution"


def merge_route_records(
    outputs: list[ShardOutput], scheduled, detect_times
) -> list:
    """Interleave per-shard route records into the global publish order.

    Records are totally ordered within a shard (bus publish order) but only
    timestamp-ordered across shards.  At equal timestamps the dominant
    cluster is the detection instant of a topology event, where
    ``_notify_down(a, b)`` reacts at ``a`` then ``b``; the tie-break ranks
    the event's own endpoints in pair order first, then everything else by
    node id.  The sort is stable over the shard-ordered concatenation, so
    within-shard order is never perturbed.
    """
    detect_pairs: dict[float, tuple[int, int]] = {}
    for event, detect in zip(scheduled, detect_times):
        detect_pairs.setdefault(detect, (event.a, event.b))

    def rank(record) -> tuple:
        pair = detect_pairs.get(record.time)
        if pair is not None and record.node in pair:
            return (0, pair.index(record.node))
        return (1, record.node)

    merged = []
    for output in sorted(outputs, key=lambda o: o.shard_index):
        merged.extend(output.route_records)
    merged.sort(key=lambda record: (record.time, rank(record)))
    return merged


def _offline_monitors(
    protocol: str, fibs: dict, bus: TraceBus
) -> tuple[Optional[FibLoopMonitor], dict[str, str]]:
    """The FIB-loop monitor, subscribed to the replay bus where it can judge,
    and the skips: every default monitor the merge does not replay."""
    skips = {
        monitor.name: _SHARD_SKIP_REASON
        for monitor in MonitorSuite.default_monitors()
        if monitor.name not in _REPLAYED_MONITORS
    }
    spec = protocol_spec(protocol)
    if not spec.loop_free:
        skips[FibLoopMonitor.name] = f"protocol {protocol!r} makes no loop-freedom promise"
    elif spec.source_routed:
        skips[FibLoopMonitor.name] = (
            f"{_SHARD_SKIP_REASON} (source-routed cache needs a live sampler)"
        )
    else:
        monitor = FibLoopMonitor()
        monitor.follow(fibs, bus)
        return monitor, skips
    return None, skips


def _offline_violations(
    outputs: list[ShardOutput],
    loops: Optional[FibLoopMonitor],
    result: ScenarioResult,
    end_at: float,
) -> tuple[str, ...]:
    """Packet conservation from the shipped state, then the replayed loops."""
    violations: list[Violation] = []
    # Same arithmetic as the live monitor, from global sums (drops_total is
    # whole-run, data-only, owned nodes only).
    dropped = sum(sum(o.drops_total.values()) for o in outputs)
    outstanding = result.sent - result.delivered - dropped
    in_network = sum(o.end_occupancy_data for o in outputs)
    buffered = sum(o.pending_data for o in outputs)
    if outstanding != in_network + buffered:
        violations.append(
            Violation(
                PacketConservationMonitor.name,
                end_at,
                f"{outstanding} packet(s) unaccounted for but {in_network} "
                f"data packet(s) physically in the network and {buffered} "
                f"buffered awaiting routes",
            )
        )
    if loops is not None:
        loops.finalize(SimpleNamespace(end_time=end_at))
        violations.extend(loops.violations)
    return tuple(str(v) for v in violations)


def merge_results(
    spec,
    partition: Partition,
    outputs: list[ShardOutput],
    scheduled,
    clock: EventClock,
    validate: bool,
    collect_traces: bool,
) -> ScenarioResult:
    config = spec.config
    outputs = sorted(outputs, key=lambda o: o.shard_index)
    fibs = {node: fib for o in outputs for node, fib in o.initial_fibs.items()}

    bus = TraceBus()
    tracker = ConvergenceTracker(bus, dest=spec.receiver, src=spec.sender)
    tracker.seed({node: fib.get(spec.receiver) for node, fib in fibs.items()}, 0.0)
    watcher = NetworkConvergenceWatcher(bus)
    loops, skips = (
        _offline_monitors(spec.protocol, fibs, bus) if validate else (None, {})
    )
    for record in merge_route_records(outputs, scheduled, clock.detect_times):
        bus.publish(record)

    layout = Layout(
        spec.topology, spec.sender, spec.receiver, tuple(spec.pre_path),
        expected_final=spec.expected_final,
    )
    result = fold_result(
        spec.protocol, spec.degree, spec.seed, layout, scheduled, clock,
        traffic_start=config.traffic_start,
        end_at=config.end_time,
        tracker=tracker,
        watcher=watcher,
        sent=sum(o.sent for o in outputs),
        deliveries=outputs[partition.shard_of(spec.receiver)].deliveries,
        drops={
            cause: sum(o.drops_window.get(cause, 0) for o in outputs)
            for cause in DropCause
        },
        messages=sum(o.messages for o in outputs),
        withdrawals=sum(o.withdrawals for o in outputs),
        control_messages=sum(o.overhead_messages for o in outputs),
        control_bytes=sum(o.overhead_bytes for o in outputs),
        record_paths=config.record_paths,
    )
    if validate:
        result.violations = _offline_violations(outputs, loops, result, config.end_time)
        result.monitor_skips = skips
    if collect_traces:
        result.traces = canonical_trace_streams(
            packets=[r for o in outputs for r in o.trace_packets],
            routes=[r for o in outputs for r in o.trace_installs + o.route_records],
            links=[r for o in outputs for r in o.trace_links],
            messages=[r for o in outputs for r in o.trace_messages],
        )
    return result


# --------------------------------------------------------------------------
# trace canonicalization and the single-process reference run


def _record_key(record) -> tuple:
    return (record.time, repr(record))


def canonical_trace_streams(packets, routes, links, messages) -> dict[str, tuple]:
    """Order-normalize trace streams for byte-for-byte comparison.

    Within one timestamp the global engine order is not observable across
    shards, so each stream is sorted by ``(time, repr)`` — a total order
    both the single-process and the sharded run can reach.  Link-event
    records are deduplicated first: a cut link's events execute in both
    adjacent shards and legitimately record twice.
    """
    return {
        "packet": tuple(sorted(packets, key=_record_key)),
        "route": tuple(sorted(routes, key=_record_key)),
        "link": tuple(sorted(dict.fromkeys(links), key=_record_key)),
        "message": tuple(sorted(messages, key=_record_key)),
    }


def shard_perfetto_trace(traces: dict, log_records) -> dict:
    """Cross-shard Perfetto document: node lanes plus one lane per shard.

    ``traces`` is the :func:`canonical_trace_streams` dict a
    ``collect_traces`` run attaches as ``result.traces``; ``log_records``
    is the run-event log (list of dicts, from
    :func:`repro.obs.live.read_log`).  Packet / FIB / message / link
    events land on their node lanes exactly as in
    :func:`repro.obs.flight.perfetto_trace`, and every shard gets its own
    lane of window spans, barrier-wait fractions, and relay-injection
    instants — all on the one simulated-time axis, so a cross-shard stall
    or relay burst lines up visually with the packet activity that caused
    it.
    """
    from ..obs.flight import perfetto_trace
    from ..obs.live import shard_lane_events

    return perfetto_trace(
        packets=traces.get("packet", ()),
        route_changes=traces.get("route", ()),
        link_events=traces.get("link", ()),
        messages=traces.get("message", ()),
        extra=shard_lane_events(log_records),
    )


def run_single_with_traces(protocol: str, degree: int, seed: int, config):
    """Single-process reference run with canonical ``result.traces``."""
    from ..experiments.scenario import run_scenario
    from ..obs.flight import FlightRecorder

    reset_packet_ids()
    recorder = FlightRecorder()
    result = run_scenario(
        protocol, degree, seed, config.with_(shards=1), recorder=recorder
    )
    result.traces = canonical_trace_streams(*recorder.streams.values())
    return result
