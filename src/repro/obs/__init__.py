"""Runtime observability: metrics registry, phase profiler, sweep telemetry.

The paper's methodology is "measure, then attribute"; this package applies
the same discipline to the simulator itself so speedups and regressions in
the engine, the protocols, and the sweep executor can be attributed to a
phase and a subsystem instead of guessed at.

Three pieces, designed to cost nothing when idle:

* :class:`MetricsRegistry` — typed counters/gauges/histograms harvested from
  the always-on integer counters (``TraceCounters``, ``EventStats``, queue
  high-water marks, the protocols' route counts);
* :class:`PhaseProfiler` — hierarchical wall-clock spans (setup / warmup /
  steady / failure / convergence / drain) with optional tracemalloc peaks;
* :class:`SweepTelemetry` — per-seed runtime, worker utilisation, and
  timeout/retry counts for :func:`repro.experiments.runner.run_sweep`,
  folded from the sweep's run-log records.

``python -m repro profile`` ties them together into one run-event log: the
span tree and the registry snapshot are its ``profile`` record, a mini sweep
adds its ``seed``/``sweep`` records (see ``docs/observability.md``).

A fourth piece, the forensic layer (:mod:`repro.obs.flight`): the
:class:`FlightRecorder` keeps every trace record of a run, reconstructs
per-packet autopsies and the causal convergence timeline (with one flow's
forwarding-path states, the paper's reading of its traces), and a
validation monitor that fires writes a post-mortem ticket naming the run,
which ``repro trace --dump`` re-runs.  ``python -m repro
trace`` is its CLI; see ``docs/tracing.md``.

A fifth, the streaming layer (:mod:`repro.obs.live`): the
:class:`RunEventLog` is an append-only JSONL run-event log (shard/sweep
heartbeats, barrier windows, per-seed lifecycle, stalls, an observed
run's ``profile``) written while a run executes; ``python -m repro watch`` tails it from another process.
See ``docs/live.md``.
"""

from .collect import RunObservation
from .live import (
    LOG_SCHEMA_VERSION,
    LiveSummary,
    RunEventLog,
    check_log,
    format_live,
    open_live_log,
    read_log,
    shard_lane_events,
    summarize_log,
    watch,
    write_log,
)
from .flight import (
    CausalTimeline,
    FlightRecorder,
    PacketAutopsy,
    build_causal_timeline,
    build_dump,
    check_dump,
    format_autopsy,
    format_causal_timeline,
    load_dump,
    packet_autopsies,
    packet_autopsy,
    perfetto_trace,
    save_dump,
    write_perfetto,
)
from .profiler import NULL_PROFILER, PhaseProfiler, Span
from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .sweeps import SeedTiming, SweepTelemetry

__all__ = [
    "CausalTimeline",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PacketAutopsy",
    "build_causal_timeline",
    "build_dump",
    "check_dump",
    "format_autopsy",
    "format_causal_timeline",
    "load_dump",
    "packet_autopsies",
    "packet_autopsy",
    "perfetto_trace",
    "save_dump",
    "write_perfetto",
    "PhaseProfiler",
    "Span",
    "NULL_PROFILER",
    "RunObservation",
    "SeedTiming",
    "SweepTelemetry",
    "LOG_SCHEMA_VERSION",
    "LiveSummary",
    "RunEventLog",
    "check_log",
    "format_live",
    "open_live_log",
    "read_log",
    "shard_lane_events",
    "summarize_log",
    "watch",
    "write_log",
]
