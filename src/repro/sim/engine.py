"""Discrete-event simulation engine.

A :class:`Simulator` owns virtual time and an event queue.  Events are
callbacks scheduled at absolute or relative times; ties are broken by
insertion order so execution is fully deterministic.  Cancellation is done
lazily: :meth:`EventHandle.cancel` marks the entry and the main loop skips it.

The queue stores plain ``(time, as_of, seq, handle)`` tuples in a binary heap
(:class:`repro.sim.eventq.HeapEventQueue`) and pops them in
``(time, as_of, seq)`` order.  ``as_of`` is the virtual time the event is
ranked as having been scheduled at, and ``seq`` a number drawn from one
monotone counter.  Every public entry point uses ``as_of = now`` and a fresh
``seq``, so for them the order is plain insertion order.  The link layer and
the CBR source rank their events otherwise (see :mod:`repro.net.link` and
:mod:`repro.traffic.cbr`), through the private :meth:`Simulator._schedule_ranked`.

There are three scheduling entry points.  :meth:`Simulator.schedule` and
:meth:`Simulator.schedule_at` take optional ``*args`` that are stored on the
handle, so callers allocate no closure per event; repeating timers recycle
their handle via :meth:`Simulator.reschedule`.

This is the substrate every other package builds on (links schedule packet
arrivals, protocols schedule timers, traffic sources schedule departures).
"""

from __future__ import annotations

import itertools
import time as _wallclock
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Optional

from .eventq import HeapEventQueue

__all__ = ["Simulator", "EventHandle", "EventStats", "SimulationError"]

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised on invalid scheduler use (e.g. scheduling into the past)."""


class EventHandle:
    """Cancelable reference to a scheduled event."""

    __slots__ = ("time", "callback", "args", "_cancelled", "_fired")

    def __init__(
        self, time: float, callback: Callable[..., None], args: tuple = ()
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self._cancelled = False
        self._fired = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call repeatedly."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def pending(self) -> bool:
        """True while the event is still scheduled to fire."""
        return not self._cancelled and not self._fired

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        return f"<EventHandle t={self.time:.6f} {state}>"


@dataclass(frozen=True)
class EventStats:
    """Snapshot of scheduler health, taken via :meth:`Simulator.stats`."""

    events_processed: int
    cancelled_skipped: int
    queue_depth_hwm: int
    pending: int
    wall_time: float
    sim_time: float

    @property
    def events_per_sec(self) -> float:
        """Executed events per wall-clock second spent inside ``run()``."""
        return self.events_processed / self.wall_time if self.wall_time > 0 else 0.0


class Simulator:
    """Deterministic discrete-event scheduler.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("hello at t=1.5"))
        sim.run()
    """

    __slots__ = (
        "_now",
        "_queue",
        "_heap",
        "_seq",
        "_current",
        "_events_processed",
        "_cancel_skipped",
        "_wall_time",
        "_running",
        "_stopped",
    )

    def __init__(self) -> None:
        self._now = 0.0
        self._queue = HeapEventQueue()
        self._heap = self._queue._q
        self._seq = itertools.count()
        #: Heap entry of the event executing now (or last executed, after a
        #: stopped run); None when every event at or before ``now`` has run.
        self._current: Optional[tuple] = None
        self._events_processed = 0
        self._cancel_skipped = 0
        self._wall_time = 0.0
        self._running = False
        self._stopped = False

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (skipped cancellations excluded)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of queue entries not yet popped (includes cancelled ones)."""
        return len(self._queue)

    @property
    def run_wall_time(self) -> float:
        """Cumulative wall-clock seconds spent inside :meth:`run` so far.

        Monotone across successive ``run()`` calls, so a profiler span can
        attribute in-engine wall time to a phase by differencing this around
        the phase's ``run(until=...)`` segment (see
        :class:`repro.obs.profiler.PhaseProfiler`).
        """
        return self._wall_time

    def stats(self) -> EventStats:
        """Immutable snapshot of throughput/queue/cancellation counters."""
        return EventStats(
            events_processed=self._events_processed,
            cancelled_skipped=self._cancel_skipped,
            queue_depth_hwm=self._queue.hwm,
            pending=len(self._queue),
            wall_time=self._wall_time,
            sim_time=self._now,
        )

    # ------------------------------------------------------------- scheduling

    def schedule(
        self, delay: float, callback: Callable[..., None], *args
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        The arguments are stored on the handle, so hot paths allocate no
        lambda cell objects.
        """
        if not 0.0 <= delay < _INF:  # rejects negatives, NaN and +inf
            raise SimulationError(
                f"delay must be finite and >= 0, got {delay!r}"
            )
        now = self._now
        return self._schedule_ranked(
            now + delay, now, next(self._seq), callback, args
        )

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual ``time``.

        No ``now + delay`` float round trip, so the event fires at exactly
        ``time``.  Used by the topology event layer, whose schedules are
        expressed in absolute event times.
        """
        if not self._now <= time < _INF:  # rejects the past, NaN and +inf
            raise SimulationError(
                f"time must be finite and >= now, got t={time!r} (now={self._now})"
            )
        return self._schedule_ranked(
            time, self._now, next(self._seq), callback, args
        )

    def reschedule(self, handle: EventHandle, delay: float) -> EventHandle:
        """Re-arm an already-fired handle ``delay`` seconds from now.

        Recycles the handle object instead of allocating a new one — the fast
        path for repeating timers.  Only a handle whose queue entry has been
        consumed (i.e. it fired) may be recycled: a pending handle still has
        a live queue entry, and re-arming it would resurrect that entry.
        Cancellation is sticky — a handle cancelled at any point (even after
        it fired) stays dead, so "fire, cancel inside the action, re-arm"
        raises instead of producing a ghost event.
        """
        if handle._cancelled:
            raise SimulationError(
                "reschedule() of a cancelled handle (cancellation is sticky; "
                "schedule a fresh event instead)"
            )
        if not handle._fired:
            raise SimulationError(
                "reschedule() requires a handle that has already fired"
            )
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"delay must be finite and >= 0, got {delay!r}"
            )
        now = self._now
        time = now + delay
        handle.time = time
        handle._fired = False
        self._queue.push((time, now, next(self._seq), handle))
        return handle

    def _schedule_ranked(
        self,
        time: float,
        as_of: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at ``time``, ranked ``(as_of, seq)``
        among the events due at that instant.

        The one place a new handle enters the heap.  The public entry points
        validate ``time`` and pass ``as_of = now`` with a fresh ``seq``.  The
        link layer and the CBR source pass an ``as_of`` and a ``seq`` they
        fixed themselves (where a two-event link or a whole-window batch
        would have ranked the event), so they must guarantee that no two
        pending events share ``(time, as_of, seq)`` — the heap would then
        compare handles and raise.
        """
        handle = EventHandle(time, callback, args)
        # HeapEventQueue.push, inlined: this runs once per event.
        heap = self._heap
        heappush(heap, (time, as_of, seq, handle))
        if len(heap) > self._queue.hwm:
            self._queue.hwm = len(heap)
        return handle

    def _has_run(self, time: float, as_of: float, seq: int) -> bool:
        """Would an event ranked ``(time, as_of, seq)`` already have run?

        True when it sorts before the event executing now (or, after a
        stopped :meth:`run`, the last one executed), and between runs when
        ``time`` is not after ``now``.  Lets the link layer tell, at an exact
        time tie, whether an event it never scheduled would have fired.
        """
        current = self._current
        if current is None:
            return time <= self._now
        return (time, as_of, seq) < current

    def close(self) -> None:
        """End the run: drop every pending event.

        A pending event holds its callback, and through it a protocol, a
        link or a traffic source, so the queue would keep a finished run
        alive.  The clock and the counters stay readable.
        """
        self._heap.clear()
        self._current = None

    # -------------------------------------------------------------- execution

    def stop(self) -> None:
        """Stop a running :meth:`run` loop after the current event returns."""
        self._stopped = True

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is drained."""
        queue = self._queue
        while True:
            entry = queue.peek()
            if entry is None:
                return None
            if entry[3]._cancelled:
                queue.pop()
                self._cancel_skipped += 1
                continue
            return entry[0]

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events in order until the queue drains, ``until`` is reached,
        or ``max_events`` have executed.

        Returns the number of events executed by this call.  When ``until``
        is given, virtual time is advanced to exactly ``until`` on return —
        but only when no event at or before ``until`` is left pending (the
        queue drained, or the next event lies beyond ``until``), so repeated
        ``run(until=...)`` calls form a contiguous timeline.  A loop broken
        early by ``max_events`` or :meth:`stop` keeps ``now`` at the last
        executed event: fast-forwarding past still-pending events would let
        ``peek_time()`` report the past and new ``schedule()`` calls land
        after earlier events.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        self._stopped = False
        executed = 0
        started = _wallclock.perf_counter()
        try:
            # The heap is consumed inline: peek is a plain index and pop the
            # raw C heappop, saving two method calls per event.
            heap = self._heap
            pop = heappop
            while heap and not self._stopped:
                entry = heap[0]
                handle = entry[3]
                if handle._cancelled:
                    pop(heap)
                    self._cancel_skipped += 1
                    continue
                time = entry[0]
                if until is not None and time > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                pop(heap)
                self._now = time
                self._current = entry
                handle._fired = True
                args = handle.args
                if args:
                    handle.callback(*args)
                else:
                    handle.callback()
                executed += 1
                self._events_processed += 1
        finally:
            self._wall_time += _wallclock.perf_counter() - started
            self._running = False
        if until is not None and self._now < until and not self._stopped:
            next_time = self.peek_time()
            if next_time is None or next_time > until:
                self._now = until
        heap = self._heap
        if not heap or heap[0][0] > self._now:
            self._current = None  # every event at or before now has run
        return executed
