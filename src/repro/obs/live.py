"""Live run telemetry: a streaming run-event log plus live health views.

A sharded run (``repro.dist``) or a multi-hour sweep is a black box while
it executes: per-shard progress, barrier waits, relay volume, and stall
causes are invisible until the run ends.  This module is the streaming
counterpart of the post-hoc observability layers (:mod:`repro.obs.registry`,
:mod:`repro.obs.flight`):

* :class:`RunEventLog` — an append-only JSONL **run-event log**
  (``schema_version`` 1) with typed records: shard heartbeats, coordinator
  window/barrier summaries, per-seed sweep lifecycle, violations, stalls,
  and an observed run's ``profile`` (phase span tree + metric snapshot).
  Every record is flushed as written, so another process can tail the file
  while the run is still executing.  ``read_log -> write_log`` is
  byte-identical, and :func:`check_log` self-validates a log the same way
  ``check_dump`` validates a flight dump.
* :func:`summarize_log` / :func:`format_live` — fold a log (complete or
  in-flight) into a per-shard / per-sweep health view; ``python -m repro
  watch <log>`` renders it in place, from the file alone, so it works on a
  run owned by another process.
* :func:`shard_lane_events` — Chrome trace events giving every shard its
  own Perfetto lane (window spans, relay injections, barrier-wait
  fractions), merged with the packet/FIB lanes by
  :func:`repro.dist.merge.shard_perfetto_trace`.

The invariant inherited from the registry and the flight recorder: logging
is **harvest-only**.  Producers never consult the log; the writers read
already-maintained counters (``Simulator.events_processed``, relay
counters, sweep outcome tallies) strictly *between* engine events, so a
logged run stays byte-identical to an unlogged one (pinned by the
transparency tests).  See ``docs/live.md``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, TextIO, Union

from ..records import BOOL, COUNT, INT, LIST, NUM, NUM_GE0, OBJECT, POSITIVE, STR, TEXT
from ..records import JsonlWriter, check_envelope, check_fields, is_int, is_num
from ..records import nullable, optional, read_jsonl
from .flight import lane_name, trace_us
from .registry import check_metrics
from .sweeps import SweepTelemetry

__all__ = [
    "LOG_SCHEMA_VERSION",
    "LOG_KIND",
    "RECORD_KINDS",
    "RunEventLog",
    "open_live_log",
    "read_log",
    "write_log",
    "check_log",
    "ShardView",
    "LiveSummary",
    "summarize_log",
    "format_live",
    "watch",
    "shard_lane_events",
    "SHARD_LANE_PID",
    "COORDINATOR_PID",
]

LOG_SCHEMA_VERSION = 1
LOG_KIND = "repro-run-log"

#: Run flavors a header may declare (what produced the log).
RUN_KINDS = ("scenario", "shard", "sweep", "churn")

#: The fields of every record kind but ``header`` (checked apart): required
#: unless ``optional`` (may be absent) or ``nullable`` (may be ``null``).
_SPECS = {
    "heartbeat": {
        "shard": COUNT,
        "clock": NUM,
        "events": COUNT,
        "barrier": optional(NUM),
        **dict.fromkeys(("relays_out", "relays_in"), optional(COUNT)),
        **dict.fromkeys(("busy_s", "wall_s"), optional(NUM_GE0)),
        "phase": optional(TEXT),
    },
    "window": {
        "index": COUNT,
        "e_min": nullable(NUM),
        "barrier": NUM,
        "n_windows": POSITIVE,
        "n_relays": COUNT,
        "wall_s": NUM_GE0,
    },
    "seed": {
        "protocol": TEXT,
        "degree": INT,
        "seed": INT,
        "ok": BOOL,
        "elapsed_s": nullable(NUM_GE0),
        "done": COUNT,
        "total": COUNT,
    },
    "sweep": {
        "phase": (lambda v: v in ("begin", "end"), "begin|end"),
        **dict.fromkeys(("total_tasks", "resumed_tasks"), optional(COUNT)),
        "workers": optional(POSITIVE),
        "wall_s": optional(NUM_GE0),
    },
    "shard-end": dict.fromkeys(("shard", "events", "relays_out", "relays_in"), COUNT),
    "violation": {"text": STR},
    "stall": {
        "shard": COUNT,
        "window": NUM,
        "reason": TEXT,
        "heartbeat": nullable(OBJECT),
    },
    "profile": {"phases": OBJECT, "metrics": OBJECT},
    "end": {"ok": BOOL},
}

#: Every record kind a version-1 log may contain.  ``header`` must be the
#: first record (and only the first); everything else may appear anywhere.
RECORD_KINDS = ("header", *_SPECS)

#: Perfetto lane ids: shard ``i`` renders as process ``SHARD_LANE_PID + i``
#: so lanes never collide with node ids (node pids are small integers).
SHARD_LANE_PID = 1_000_000
COORDINATOR_PID = 999_999


# --------------------------------------------------------------------------
# writer
# --------------------------------------------------------------------------


class RunEventLog(JsonlWriter):
    """Append-only JSONL writer for one run's event log.

    Every ``append`` writes one complete line and flushes it, so a crash
    loses at most the in-flight record and a concurrent reader never sees a
    torn prefix (:func:`read_log` additionally tolerates a torn tail).  The
    header line is written by the constructor; the writer is otherwise
    schema-agnostic — producers call the typed convenience methods below,
    or ``write`` a record dict (the sweep executor builds each ``seed`` and
    ``sweep`` record once and hands the same dict to its telemetry fold).
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        run: str = "scenario",
        meta: Optional[dict] = None,
    ) -> None:
        if run not in RUN_KINDS:
            raise ValueError(f"unknown run kind {run!r} (one of {RUN_KINDS})")
        super().__init__(path)
        self.append(
            "header",
            schema_version=LOG_SCHEMA_VERSION,
            log_kind=LOG_KIND,
            run=run,
            meta=dict(meta or {}),
        )

    def append(self, kind: str, **fields) -> None:
        """Write one ``{"kind": kind, **fields}`` record and flush it."""
        self.write({"kind": kind, **fields})

    # ---------------------------------------------------- typed convenience

    def heartbeat(
        self,
        shard: int,
        clock: float,
        events: int,
        barrier: Optional[float] = None,
        relays_out: Optional[int] = None,
        relays_in: Optional[int] = None,
        busy_s: Optional[float] = None,
        wall_s: Optional[float] = None,
        phase: Optional[str] = None,
    ) -> None:
        """One shard's (or a 1-process run's) progress snapshot.

        ``clock``/``events`` are cumulative; the optional fields only make
        sense under the barrier protocol (``barrier`` = the window just
        completed, relay counts are cumulative, ``busy_s``/``wall_s`` are
        the worker's cumulative simulate/total wall seconds — their gap is
        barrier wait).  ``phase`` labels 1-process phase-boundary beats.
        """
        fields: dict = {"shard": shard, "clock": clock, "events": events}
        if barrier is not None:
            fields["barrier"] = barrier
        if relays_out is not None:
            fields["relays_out"] = relays_out
        if relays_in is not None:
            fields["relays_in"] = relays_in
        if busy_s is not None:
            fields["busy_s"] = busy_s
        if wall_s is not None:
            fields["wall_s"] = wall_s
        if phase is not None:
            fields["phase"] = phase
        self.append("heartbeat", **fields)

    def window(
        self,
        index: int,
        e_min: Optional[float],
        barrier: float,
        n_windows: int,
        n_relays: int,
        wall_s: float,
    ) -> None:
        """Coordinator barrier-window summary (coalesced; see docs/live.md).

        ``index`` counts emitted records; ``n_windows`` and ``n_relays``
        cover every barrier window since the previous record, whose
        coordinator wall-clock cost was ``wall_s`` seconds.
        """
        self.append(
            "window",
            index=index,
            e_min=e_min,
            barrier=barrier,
            n_windows=n_windows,
            n_relays=n_relays,
            wall_s=wall_s,
        )

    def shard_end(
        self, shard: int, events: int, relays_out: int, relays_in: int
    ) -> None:
        """Final per-shard totals as the coordinator reports them."""
        self.append(
            "shard-end",
            shard=shard,
            events=events,
            relays_out=relays_out,
            relays_in=relays_in,
        )

    def violation(self, text: str) -> None:
        self.append("violation", text=str(text))

    def stall(
        self, shard: int, window: float, reason: str, heartbeat: Optional[dict]
    ) -> None:
        """A shard hung or died; ``heartbeat`` is its last snapshot (or None)."""
        self.append(
            "stall", shard=shard, window=window, reason=reason,
            heartbeat=heartbeat,
        )

    def end(self, ok: bool, **fields) -> None:
        self.append("end", ok=ok, **fields)


def open_live_log(
    target: Union[None, str, os.PathLike, RunEventLog],
    run: str,
    meta: Optional[dict] = None,
) -> tuple[Optional[RunEventLog], bool]:
    """Coerce a ``--live-log`` argument into ``(log, owns)``.

    A path opens a fresh log (caller should close it: ``owns`` is True); an
    existing :class:`RunEventLog` is used as-is (``owns`` False) so one log
    can span several runs; None passes through.
    """
    if target is None:
        return None, False
    if isinstance(target, RunEventLog):
        return target, False
    return RunEventLog(target, run=run, meta=meta), True


# --------------------------------------------------------------------------
# reader + self-validation
# --------------------------------------------------------------------------


def read_log(path: Union[str, os.PathLike]) -> list:
    """Read a run-event log, tolerating the torn tail of a live writer.

    Reading stops at the first line that is not complete valid JSON — the
    same convention as the sweep store — so tailing a log mid-append never
    raises.  A log that does not exist yet has no records.
    """
    return read_jsonl(path)


def write_log(records: Iterable[dict], path: Union[str, os.PathLike]) -> None:
    """Write records as JSONL; ``read_log -> write_log`` is byte-identical."""
    with JsonlWriter(path) as out:
        for record in records:
            out.write(record)


_HEADER_ENVELOPE = {"schema_version": LOG_SCHEMA_VERSION, "log_kind": LOG_KIND}
_HEADER_SPEC = {"run": (RUN_KINDS.__contains__, f"one of {RUN_KINDS}"), "meta": OBJECT}


#: One node of a ``profile`` record's phase tree (``PhaseProfiler.to_dict``).
_SPAN_SPEC = {
    "name": TEXT,
    "wall_s": NUM_GE0,
    # Engine attribution: absent on spans that ran no events.
    "events": optional(INT),
    **dict.fromkeys(("run_wall_s", "sim_s", "mem_peak_kb"), optional(NUM)),
    "children": optional(LIST),
}


def _check_span(span: object, path: str, problems: list[str]) -> None:
    check_fields(span, _SPAN_SPEC, path, problems)
    children = span.get("children") if isinstance(span, dict) else None
    for i, child in enumerate(children if isinstance(children, list) else ()):
        _check_span(child, f"{path}.children[{i}]", problems)


def _check_profile(record: dict, where: str, problems: list[str]) -> None:
    """The span tree and metric snapshot of a field-checked ``profile`` record."""
    _check_span(record["phases"], f"{where}.phases", problems)
    problems.extend(check_metrics(record["metrics"], f"{where}.metrics"))


def check_log(records: Iterable[dict]) -> list[str]:
    """Validate a run-event log; returns human-readable problems (empty = ok).

    Checks the header (first record, version, run kind), every record's
    kind and required fields, per-shard heartbeat monotonicity (cumulative
    event counts and clocks never go backwards), window-record index
    monotonicity, sweep ``done <= total`` sanity, and a ``profile``
    record's span tree and metric invariants.  Like ``check_dump``,
    corruption is reported, never repaired.
    """
    problems: list[str] = []
    records = list(records)
    if not records:
        return ["log is empty (no header record)"]

    header = records[0]
    if not isinstance(header, dict) or header.get("kind") != "header":
        problems.append(
            f"records[0]: first record must be the header, got "
            f"{header.get('kind') if isinstance(header, dict) else header!r}"
        )
    else:
        check_envelope(header, _HEADER_ENVELOPE, "header: ", problems)
        check_fields(header, _HEADER_SPEC, "header", problems)

    last_beat: dict[int, tuple[float, int]] = {}
    last_window_index: Optional[int] = None
    for i, record in enumerate(records[1:], start=1):
        if not isinstance(record, dict):
            problems.append(f"records[{i}]: must be an object")
            continue
        kind = record.get("kind")
        if kind not in RECORD_KINDS:
            problems.append(f"records[{i}]: unknown kind {kind!r}")
            continue
        if kind == "header":
            problems.append(f"records[{i}]: duplicate header")
        where = f"records[{i}] ({kind})"
        if not check_fields(record, _SPECS.get(kind, {}), where, problems):
            continue
        if kind == "heartbeat":
            shard = record["shard"]
            prior = last_beat.get(shard)
            if prior is not None:
                if record["clock"] < prior[0]:
                    problems.append(
                        f"records[{i}]: shard {shard} clock {record['clock']} "
                        f"goes backwards (previous {prior[0]})"
                    )
                if record["events"] < prior[1]:
                    problems.append(
                        f"records[{i}]: shard {shard} event count "
                        f"{record['events']} goes backwards (previous {prior[1]})"
                    )
            last_beat[shard] = (record["clock"], record["events"])
        elif kind == "window":
            if last_window_index is not None and record["index"] <= last_window_index:
                problems.append(
                    f"records[{i}]: window index {record['index']} does not "
                    f"increase (previous {last_window_index})"
                )
            last_window_index = record["index"]
        elif kind == "seed" and record["done"] > record["total"]:
            problems.append(
                f"records[{i}]: done {record['done']} exceeds total "
                f"{record['total']}"
            )
        elif kind == "profile":
            _check_profile(record, where, problems)
    return problems


# --------------------------------------------------------------------------
# live summary (the watch view)
# --------------------------------------------------------------------------


@dataclass
class ShardView:
    """Rolling view of one shard (or the single process of a 1-shard run)."""

    shard: int
    clock: float = 0.0
    events: int = 0
    relays_out: int = 0
    relays_in: int = 0
    #: None until a heartbeat carries ``busy_s`` (1-process runs never do —
    #: there is no barrier to wait at, so the column renders blank).
    busy_s: Optional[float] = None
    wall_s: float = 0.0
    n_beats: int = 0
    phase: Optional[str] = None
    #: Events per wall second over the latest heartbeat interval (None until
    #: two beats with wall_s have been seen).
    rate: Optional[float] = None

    @property
    def barrier_wait_fraction(self) -> Optional[float]:
        """Fraction of wall time spent waiting at barriers, not simulating."""
        if self.busy_s is None or self.wall_s <= 0:
            return None
        return max(0.0, 1.0 - self.busy_s / self.wall_s)


@dataclass
class LiveSummary:
    """Everything the watch view renders, folded from a (partial) log."""

    run: str = "scenario"
    meta: dict = field(default_factory=dict)
    shards: dict[int, ShardView] = field(default_factory=dict)
    shard_totals: dict[int, dict] = field(default_factory=dict)
    n_windows: int = 0
    n_relays: int = 0
    last_barrier: Optional[float] = None
    #: The ``seed``/``sweep`` records folded (None for a run with neither).
    sweep: Optional[SweepTelemetry] = None
    #: The latest valid ``profile`` record (None until one is seen).
    profile: Optional[dict] = None
    violations: list[str] = field(default_factory=list)
    stall: Optional[dict] = None
    ended: bool = False
    end_ok: Optional[bool] = None
    n_records: int = 0
    problems: list[str] = field(default_factory=list)


def summarize_log(records: Iterable[dict]) -> LiveSummary:
    """Fold a log (complete or mid-run) into a :class:`LiveSummary`.

    Tolerant by design — the watch CLI must render *something* for any
    prefix of a valid log — but header and ``profile`` problems are
    surfaced on ``summary.problems`` so a corrupt log is visibly corrupt.
    """
    summary = LiveSummary()
    for record in records:
        if not isinstance(record, dict):
            continue
        summary.n_records += 1
        kind = record.get("kind")
        if kind == "header":
            check_envelope(record, _HEADER_ENVELOPE, "header: ", summary.problems)
            summary.run = record.get("run", "scenario")
            meta = record.get("meta")
            summary.meta = meta if isinstance(meta, dict) else {}
        elif kind == "heartbeat":
            shard = record.get("shard")
            if not is_int(shard):
                continue
            view = summary.shards.setdefault(shard, ShardView(shard=shard))
            new_wall = record.get("wall_s")
            new_events = record.get("events", view.events)
            if (
                is_num(new_wall)
                and view.n_beats
                and new_wall > view.wall_s
                and is_int(new_events)
            ):
                view.rate = (new_events - view.events) / (new_wall - view.wall_s)
            view.clock = record.get("clock", view.clock)
            view.events = new_events
            view.relays_out = record.get("relays_out", view.relays_out)
            view.relays_in = record.get("relays_in", view.relays_in)
            view.busy_s = record.get("busy_s", view.busy_s)
            if is_num(new_wall):
                view.wall_s = new_wall
            view.phase = record.get("phase", view.phase)
            view.n_beats += 1
        elif kind == "window":
            summary.n_windows += record.get("n_windows", 1)
            summary.n_relays += record.get("n_relays", 0)
            summary.last_barrier = record.get("barrier", summary.last_barrier)
        elif kind in ("seed", "sweep"):
            summary.sweep = summary.sweep or SweepTelemetry()
            summary.sweep.fold(record)
        elif kind == "shard-end":
            shard = record.get("shard")
            if is_int(shard):
                summary.shard_totals[shard] = {
                    "events": record.get("events"),
                    "relays_out": record.get("relays_out"),
                    "relays_in": record.get("relays_in"),
                }
        elif kind == "violation":
            summary.violations.append(str(record.get("text")))
        elif kind == "stall":
            summary.stall = record
        elif kind == "profile":
            problems: list[str] = []
            if check_fields(record, _SPECS["profile"], "profile", problems):
                _check_profile(record, "profile", problems)
            if problems:
                summary.problems.extend(problems)
            else:
                summary.profile = record
        elif kind == "end":
            summary.ended = True
            summary.end_ok = record.get("ok")
        else:
            summary.problems.append(f"unknown record kind {kind!r}")
    return summary


def _fmt_rate(rate: Optional[float]) -> str:
    if rate is None:
        return "      --"
    if rate >= 1e6:
        return f"{rate / 1e6:6.2f}M"
    if rate >= 1e3:
        return f"{rate / 1e3:6.1f}k"
    return f"{rate:7.0f}"


def format_live(summary: LiveSummary) -> str:
    """Render one :class:`LiveSummary` as the in-place watch view."""
    lines: list[str] = []
    meta = " ".join(
        f"{k}={v}" for k, v in sorted(summary.meta.items()) if not isinstance(v, dict)
    )
    status = "ENDED" if summary.ended else "running"
    if summary.ended and summary.end_ok is False:
        status = "ENDED (failed)"
    lines.append(f"{summary.run} run [{status}]" + (f"  {meta}" if meta else ""))
    for problem in summary.problems:
        lines.append(f"  LOG PROBLEM: {problem}")
    if summary.shards:
        lines.append(
            f"  {'shard':>5} {'sim clock':>10} {'events':>10} {'ev/s':>8} "
            f"{'relays out/in':>14} {'barrier wait':>13}"
        )
        for shard in sorted(summary.shards):
            v = summary.shards[shard]
            wait = v.barrier_wait_fraction
            wait_s = f"{wait:12.1%}" if wait is not None else "          --"
            phase = f"  [{v.phase}]" if v.phase else ""
            lines.append(
                f"  {shard:>5} {v.clock:>9.3f}s {v.events:>10} "
                f"{_fmt_rate(v.rate):>8} {v.relays_out:>6}/{v.relays_in:<6} "
                f"{wait_s}{phase}"
            )
    if summary.n_windows:
        barrier = (
            f", barrier t={summary.last_barrier:.3f}s"
            if summary.last_barrier is not None
            else ""
        )
        lines.append(
            f"  windows: {summary.n_windows} "
            f"({summary.n_relays} relays{barrier})"
        )
    if summary.sweep is not None:
        s = summary.sweep
        done = f"{s.done}/{s.total_tasks}" if s.total_tasks else str(s.done)
        extras = []
        if s.failed:
            extras.append(f"{s.failed} failed")
        if s.resumed_tasks:
            extras.append(f"{s.resumed_tasks} resumed")
        tail = f" ({', '.join(extras)})" if extras else ""
        lines.append(f"  sweep: {done} seeds done{tail}  [{s.workers} worker(s)]")
        if s.last_label:
            lines.append(f"  last: {s.last_label}")
        if s.wall_s is not None:
            # The fold keeps whatever ``workers`` the log holds; only a
            # count makes a utilization.
            util = f", utilization {s.utilization:.0%}" if is_int(s.workers) else ""
            lines.append(f"  wall: {s.wall_s:.2f}s{util}")
        slowest = s.slowest
        if slowest is not None:
            lines.append(
                f"  slowest seed: {slowest.protocol} degree={slowest.degree} "
                f"seed={slowest.seed} ({slowest.elapsed_s:.2f}s)"
            )
    if summary.profile is not None:
        _format_profile(summary.profile, lines)
    if summary.stall is not None:
        st = summary.stall
        lines.append(
            f"  STALL: shard {st.get('shard')} at window t={st.get('window')}: "
            f"{st.get('reason')}"
        )
    for v in summary.violations[:5]:
        lines.append(f"  VIOLATION: {v}")
    if len(summary.violations) > 5:
        lines.append(f"  ... {len(summary.violations) - 5} more violation(s)")
    lines.append(f"  [{summary.n_records} log record(s)]")
    return "\n".join(lines)


def _format_span(span: dict, lines: list[str], depth: int) -> None:
    label = f"{'  ' * depth}{span['name']}"
    extra = ""
    if "events" in span:
        rate = span["events"] / span["run_wall_s"] if span.get("run_wall_s") else 0.0
        extra = (
            f"  [{span['events']:,} events, {span.get('sim_s', 0.0):.1f} sim-s"
            + (f", {rate:,.0f} ev/s" if rate else "")
            + "]"
        )
    if "mem_peak_kb" in span:
        extra += f"  (peak {span['mem_peak_kb']:,.0f} KiB)"
    lines.append(f"  {label:<28} {span['wall_s'] * 1e3:>9.1f} ms{extra}")
    for child in span.get("children", ()):
        _format_span(child, lines, depth + 1)


def _format_profile(profile: dict, lines: list[str]) -> None:
    """The phase tree and metric list of a checked ``profile`` record."""
    lines.append("  phases (wall time):")
    _format_span(profile["phases"], lines, 1)
    metrics = profile["metrics"]
    if metrics:
        lines.append("  metrics:")
    for name, m in sorted(metrics.items()):
        if m["kind"] == "counter":
            lines.append(f"    {name:<32} {m['value']:>12,}")
        elif m["kind"] == "gauge":
            lines.append(f"    {name:<32} {m['value']:>12,.2f} (hwm {m['hwm']:,.2f})")
        else:
            mean = m["total"] / m["count"] if m["count"] else 0.0
            lines.append(
                f"    {name:<32} n={m['count']:,} mean={mean:.3g} "
                f"buckets={m['counts']}"
            )


def watch(
    path: Union[str, os.PathLike],
    once: bool = False,
    interval: float = 0.5,
    stream: Optional[TextIO] = None,
    max_seconds: Optional[float] = None,
) -> int:
    """Tail a run-event log and render the live view in place.

    Reads the file alone — no handle on the producing process — so it works
    on a run executing elsewhere.  ``once`` renders a single frame and
    returns (the CI smoke mode); otherwise the view refreshes every
    ``interval`` seconds until the log's ``end`` record appears (or
    ``max_seconds`` elapses).  Returns 0, or 1 when the log has no valid
    header.
    """
    import sys

    out = stream if stream is not None else sys.stdout
    started = time.monotonic()
    prev_lines = 0
    while True:
        try:
            records = read_log(path)
        except OSError as exc:
            print(f"cannot read {os.fspath(path)!r}: {exc}", file=out)
            return 1
        summary = summarize_log(records)
        text = format_live(summary)
        if prev_lines:
            # Redraw in place: move up over the previous frame.
            out.write(f"\x1b[{prev_lines}F\x1b[J")
        out.write(text + "\n")
        out.flush()
        prev_lines = text.count("\n") + 1
        first = records[0] if records else None
        if not isinstance(first, dict) or first.get("kind") != "header":
            print("not a run-event log (no header record)", file=out)
            return 1
        if once or summary.ended:
            return 0
        if max_seconds is not None and time.monotonic() - started >= max_seconds:
            return 0
        time.sleep(interval)


# --------------------------------------------------------------------------
# Perfetto shard lanes
# --------------------------------------------------------------------------


def shard_lane_events(records: Iterable[dict]) -> list[dict]:
    """Chrome trace events: one lane per shard plus a coordinator lane.

    Built purely from the run-event log, on the simulated-time axis shared
    with the packet/FIB lanes: each shard lane shows its window spans
    (previous heartbeat clock -> clock, with event/relay deltas and the
    barrier-wait fraction in ``args``) and an instant per relay-injection
    batch; the coordinator lane shows the coalesced barrier windows.  Merge
    with the node lanes via
    :func:`repro.dist.merge.shard_perfetto_trace` (or pass as ``extra=`` to
    :func:`repro.obs.flight.perfetto_trace`).
    """
    events: list[dict] = []
    lanes: set[int] = set()
    prev: dict[int, dict] = {}
    prev_barrier = 0.0
    for record in records:
        if not isinstance(record, dict):
            continue
        kind = record.get("kind")
        if kind == "heartbeat" and is_int(record.get("shard")):
            shard = record["shard"]
            pid = SHARD_LANE_PID + shard
            lanes.add(shard)
            last = prev.get(shard)
            clock = record.get("clock", 0.0)
            start = last.get("clock", 0.0) if last else 0.0
            delta_events = record.get("events", 0) - (
                last.get("events", 0) if last else 0
            )
            args = {
                "events": delta_events,
                "events_total": record.get("events", 0),
                "relays_out": record.get("relays_out"),
                "relays_in": record.get("relays_in"),
            }
            busy, wall = record.get("busy_s"), record.get("wall_s")
            if is_num(busy) and is_num(wall) and wall > 0:
                args["barrier_wait_fraction"] = round(1.0 - busy / wall, 4)
            events.append(
                {
                    "name": "window",
                    "cat": "shard",
                    "ph": "X",
                    "ts": trace_us(start),
                    "dur": max(0.0, trace_us(clock) - trace_us(start)),
                    "pid": pid,
                    "tid": pid,
                    "args": args,
                }
            )
            if last is not None:
                injected = record.get("relays_in", 0) - last.get("relays_in", 0)
                if is_int(injected) and injected > 0:
                    events.append(
                        {
                            "name": f"inject {injected} relay(s)",
                            "cat": "shard",
                            "ph": "i",
                            "ts": trace_us(clock),
                            "pid": pid,
                            "tid": pid,
                            "s": "t",
                            "args": {"relays": injected},
                        }
                    )
            prev[shard] = record
        elif kind == "window" and is_num(record.get("barrier")):
            barrier = record["barrier"]
            events.append(
                {
                    "name": f"{record.get('n_windows', 1)} window(s)",
                    "cat": "coordinator",
                    "ph": "X",
                    "ts": trace_us(prev_barrier),
                    "dur": max(0.0, trace_us(barrier) - trace_us(prev_barrier)),
                    "pid": COORDINATOR_PID,
                    "tid": COORDINATOR_PID,
                    "args": {
                        "n_relays": record.get("n_relays"),
                        "wall_s": record.get("wall_s"),
                    },
                }
            )
            prev_barrier = barrier
    metadata = [lane_name(COORDINATOR_PID, "coordinator")] + [
        lane_name(SHARD_LANE_PID + shard, f"shard {shard}") for shard in sorted(lanes)
    ]
    return metadata + events
