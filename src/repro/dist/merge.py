"""Merge per-shard outputs into one ``ScenarioResult``.

The merge owns only what sharding adds: tallies are sums (every drop and
message is counted by exactly one shard), and the per-shard route streams are
interleaved into one (see :func:`merge_route_records` for the tie-break,
the only genuinely order-sensitive step).  The merged stream is published
on a fresh bus to a convergence tracker, a watcher and, when validating,
the FIB-loop monitor, each subscribed as in a live run; the result is then
assembled by :func:`~repro.experiments.scenario.fold_result`, the fold a
single-process run uses.  Packet conservation is re-checked from the
shipped end-of-run state by :meth:`PacketConservationMonitor.balance`, and
open loops are closed by :meth:`FibLoopMonitor.finish`: the checks the live
monitors run, called rather than copied.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from ..experiments.scenario import EventClock, Layout, ScenarioResult, fold_result
from ..metrics.convergence import ConvergenceTracker, NetworkConvergenceWatcher
from ..metrics.counters import Tally
from ..obs.flight import FlightRecorder, perfetto_trace
from ..routing.catalog import protocol_spec
from ..sim.tracing import TraceBus
from ..validation.monitors import (
    FibLoopMonitor,
    MonitorSuite,
    PacketConservationMonitor,
)
from .partition import Partition
from .worker import ShardOutput

__all__ = [
    "merge_results",
    "merge_route_records",
    "canonical_trace_streams",
    "shard_perfetto_trace",
    "MODE_FIELDS",
    "diff_recordings",
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
    conservation = PacketConservationMonitor()
    # Global sums (no data packet is dropped before warm start ends).
    conservation.balance(
        end_at,
        outstanding=result.sent - result.delivered - sum(o.run.drops for o in outputs),
        in_network=sum(o.end_occupancy_data for o in outputs),
        buffered=sum(o.pending_data for o in outputs),
    )
    violations = conservation.violations
    if loops is not None:
        loops.finish(end_at)
        violations += loops.violations
    return tuple(str(v) for v in violations)


def merge_results(
    spec,
    partition: Partition,
    outputs: list[ShardOutput],
    scheduled,
    clock: EventClock,
    recorder: Optional[FlightRecorder] = None,
) -> ScenarioResult:
    """One result from the shards' outputs; ``spec.config.validate`` judges
    the offline invariants, and ``recorder`` receives every shard's records
    in :func:`canonical_trace_streams` order."""
    config = spec.config
    outputs = sorted(outputs, key=lambda o: o.shard_index)
    fibs = {node: fib for o in outputs for node, fib in o.initial_fibs.items()}

    bus = TraceBus()
    tracker = ConvergenceTracker(bus, dest=spec.receiver, src=spec.sender)
    tracker.seed({node: fib.get(spec.receiver) for node, fib in fibs.items()}, 0.0)
    watcher = NetworkConvergenceWatcher(bus)
    loops, skips = (
        _offline_monitors(spec.protocol, fibs, bus) if config.validate else (None, {})
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
        window=sum((o.window for o in outputs), Tally()),
        run=sum((o.run for o in outputs), Tally()),
        record_paths=config.record_paths,
    )
    if config.validate:
        result.violations = _offline_violations(outputs, loops, result, config.end_time)
        result.monitor_skips = skips
    if recorder is not None:
        shipped = {
            kind: [r for o in outputs for r in o.streams[kind]]
            for kind in recorder.streams
        }
        for kind, records in canonical_trace_streams(shipped).items():
            recorder.streams[kind].extend(records)
    return result


# --------------------------------------------------------------------------
# trace canonicalization


def _record_key(record) -> tuple:
    return (record.time, repr(record))


def canonical_trace_streams(streams: Mapping[str, Iterable]) -> dict[str, tuple]:
    """Order-normalize trace streams (kind -> records) for comparison.

    Within one timestamp the global engine order is not observable across
    shards, so each stream is sorted by ``(time, repr)`` — a total order
    both the single-process and the sharded run can reach.  Link-event
    records are deduplicated first: a cut link's events execute in both
    adjacent shards and legitimately record twice.
    """
    return {
        kind: tuple(
            sorted(
                dict.fromkeys(records) if kind == "link" else records,
                key=_record_key,
            )
        )
        for kind, records in streams.items()
    }


def diff_recordings(a: FlightRecorder, b: FlightRecorder) -> list[str]:
    """Every trace stream in which two recordings of one run differ, in
    :func:`canonical_trace_streams` order; empty means the same records.

    A stream is named by its record counts and its first diverging index.
    """
    problems = []
    theirs = canonical_trace_streams(b.streams)
    for kind, x in canonical_trace_streams(a.streams).items():
        y = theirs[kind]
        if x != y:
            first = next(
                (i for i, (p, q) in enumerate(zip(x, y)) if p != q), min(len(x), len(y))
            )
            problems.append(
                f"trace stream {kind!r} ({len(x)} vs {len(y)} records, "
                f"first divergence at index {first})"
            )
    return problems


def shard_perfetto_trace(recorder: FlightRecorder, log_records) -> dict:
    """Cross-shard Perfetto document: node lanes plus one lane per shard.

    ``recorder`` is the :class:`~repro.obs.flight.FlightRecorder` a sharded
    run filled; ``log_records`` is the run-event log (list of dicts, from
    :func:`repro.obs.live.read_log`).  Packet / FIB / message / link
    events land on their node lanes exactly as in
    :func:`repro.obs.flight.perfetto_trace`, and every shard gets its own
    lane of window spans, barrier-wait fractions, and relay-injection
    instants — all on the one simulated-time axis, so a cross-shard stall
    or relay burst lines up visually with the packet activity that caused
    it.
    """
    from ..obs.live import shard_lane_events

    streams = recorder.streams
    return perfetto_trace(
        packets=streams["packet"],
        route_changes=streams["route"],
        link_events=streams["link"],
        messages=streams["message"],
        extra=shard_lane_events(log_records),
    )

