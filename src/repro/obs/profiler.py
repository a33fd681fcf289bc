"""Hierarchical wall-clock phase profiler.

Answers "where does the time go" for a run or a campaign: nested
context-manager spans (setup / warmup / steady / failure / convergence /
drain, and per-row spans in a campaign) measure wall time, and — when a
:class:`~repro.sim.engine.Simulator` is attached to a span — the engine's
event count, in-``run()`` wall time, and simulated-time progress over the
span, so event *rate* can be attributed per phase.

Determinism contract: the profiler only ever reads wall clocks and engine
counters; it never touches simulated time, RNG streams, or the event queue,
so profiling a run cannot perturb its results (pinned by the golden
on/off-identical test in ``tests/obs``).

Optional memory profiling (``trace_memory=True``) snapshots ``tracemalloc``
peaks per top-level span.  It is off by default because tracemalloc slows
allocation-heavy code noticeably; wall-clock spans stay near-free.

A disabled profiler (``PhaseProfiler(enabled=False)``, or the module's
``NULL_PROFILER``) hands out one shared no-op span, so call sites can be
unconditional::

    with profiler.span("convergence", sim=sim):
        sim.run(until=end_at)
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Optional

__all__ = ["PhaseProfiler", "Span", "NULL_PROFILER"]


class Span:
    """One timed phase; may nest children."""

    __slots__ = (
        "name",
        "wall_s",
        "children",
        "events",
        "run_wall_s",
        "sim_s",
        "mem_peak_kb",
        "_started",
        "_sim",
        "_events0",
        "_run_wall0",
        "_sim_t0",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.wall_s = 0.0
        self.children: list[Span] = []
        # Engine attribution (None unless a Simulator was attached).
        self.events: Optional[int] = None
        self.run_wall_s: Optional[float] = None
        self.sim_s: Optional[float] = None
        # tracemalloc peak over the span (None unless memory tracing was on).
        self.mem_peak_kb: Optional[float] = None
        self._started = 0.0
        self._sim = None
        self._events0 = 0
        self._run_wall0 = 0.0
        self._sim_t0 = 0.0

    @property
    def events_per_sec(self) -> float:
        """Engine events per wall second spent inside ``run()`` this span."""
        if not self.events or not self.run_wall_s:
            return 0.0
        return self.events / self.run_wall_s

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "wall_s": self.wall_s}
        if self.events is not None:
            out["events"] = self.events
            out["run_wall_s"] = self.run_wall_s
            out["sim_s"] = self.sim_s
        if self.mem_peak_kb is not None:
            out["mem_peak_kb"] = self.mem_peak_kb
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


class _NullSpan:
    """Shared do-nothing span for disabled profilers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    """Context manager that times one span and links it into the tree."""

    __slots__ = ("_profiler", "_span")

    def __init__(self, profiler: "PhaseProfiler", span: Span) -> None:
        self._profiler = profiler
        self._span = span

    def __enter__(self) -> Span:
        span = self._span
        profiler = self._profiler
        profiler._stack.append(span)
        if profiler.trace_memory and len(profiler._stack) == 2:
            # Top-level span (root is _stack[0]): reset the peak so each
            # phase reports its own high-water mark, not the run's.
            tracemalloc.reset_peak()
        sim = span._sim
        if sim is not None:
            span._events0 = sim.events_processed
            span._run_wall0 = sim.run_wall_time
            span._sim_t0 = sim.now
        span._started = time.perf_counter()
        return span

    def __exit__(self, *exc_info) -> None:
        span = self._span
        profiler = self._profiler
        span.wall_s += time.perf_counter() - span._started
        sim = span._sim
        if sim is not None:
            span.events = sim.events_processed - span._events0
            span.run_wall_s = sim.run_wall_time - span._run_wall0
            span.sim_s = sim.now - span._sim_t0
            span._sim = None
        if profiler.trace_memory and len(profiler._stack) == 2:
            _, peak = tracemalloc.get_traced_memory()
            span.mem_peak_kb = peak / 1024.0
        assert profiler._stack and profiler._stack[-1] is span
        profiler._stack.pop()


class PhaseProfiler:
    """Collects a tree of wall-clock spans for one run or campaign."""

    def __init__(self, enabled: bool = True, trace_memory: bool = False) -> None:
        self.enabled = enabled
        self.trace_memory = enabled and trace_memory
        self.root = Span("total")
        self._stack: list[Span] = [self.root]
        self._mem_started = False
        if self.trace_memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._mem_started = True
        self._root_started = time.perf_counter()

    def span(self, name: str, sim=None):
        """Open a child span under the innermost open span.

        ``sim`` (a :class:`~repro.sim.engine.Simulator`) opts the span into
        engine attribution: events executed, in-run wall time, and simulated
        seconds advanced while the span was open.
        """
        if not self.enabled:
            return _NULL_SPAN
        span = Span(name)
        span._sim = sim
        self._stack[-1].children.append(span)
        return _LiveSpan(self, span)

    def finish(self) -> Span:
        """Close the root span and (if owned) stop tracemalloc."""
        if self.enabled:
            self.root.wall_s = time.perf_counter() - self._root_started
        if self._mem_started and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._mem_started = False
        return self.root

    def to_dict(self) -> dict:
        """JSON-ready span tree (root included)."""
        if self.enabled and self.root.wall_s == 0.0:
            self.root.wall_s = time.perf_counter() - self._root_started
        return self.root.to_dict()


#: Shared disabled profiler: span() returns a no-op context manager.
NULL_PROFILER = PhaseProfiler(enabled=False)
