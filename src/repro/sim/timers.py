"""Timer helpers layered over the event engine.

Routing protocols are timer machines: RIP has periodic and timeout timers,
RIP/DBF damp triggered updates with a random holddown, BGP rate-limits with
per-neighbor MRAI timers.  These classes capture the three shapes used in the
paper so protocol code stays declarative.

All three classes are slotted and fire through pre-bound methods — no
closures are rebuilt per cycle — and repeating/restartable timers recycle
their :class:`~repro.sim.engine.EventHandle` via ``Simulator.reschedule``
instead of allocating a fresh one every firing.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from .engine import EventHandle, Simulator

__all__ = ["OneShotTimer", "PeriodicTimer", "JitteredInterval"]


class JitteredInterval:
    """An interval drawn uniformly from ``[base - jitter, base + jitter]``.

    Used for RIP periodic updates (30 s +/- jitter), triggered-update damping
    (U(1, 5) expressed as base 3, jitter 2) and BGP MRAI (U(25, 35) or
    U(2.5, 3.5) in the paper's two parameterizations).
    """

    __slots__ = ("base", "jitter", "_rng")

    def __init__(self, base: float, jitter: float, rng: random.Random) -> None:
        if base <= 0:
            raise ValueError(f"base interval must be positive, got {base}")
        if jitter < 0 or jitter > base:
            raise ValueError(f"jitter must be within [0, base], got {jitter}")
        self.base = base
        self.jitter = jitter
        self._rng = rng

    def sample(self) -> float:
        """Draw one interval."""
        if self.jitter == 0:
            return self.base
        return self._rng.uniform(self.base - self.jitter, self.base + self.jitter)

    @property
    def mean(self) -> float:
        return self.base

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"JitteredInterval(base={self.base}, jitter={self.jitter})"


class OneShotTimer:
    """Restartable single-fire timer.

    ``start`` (re)arms the timer; ``cancel`` disarms it.  The ``running``
    property lets protocols implement "if the damping timer is already
    running, just mark more work pending" logic directly.
    """

    __slots__ = ("_sim", "_action", "_handle")

    def __init__(self, sim: Simulator, action: Callable[[], None]) -> None:
        self._sim = sim
        self._action = action
        self._handle: Optional[EventHandle] = None

    @property
    def running(self) -> bool:
        return self._handle is not None and self._handle.pending

    @property
    def expires_at(self) -> Optional[float]:
        """Absolute fire time while running, else None."""
        return self._handle.time if self.running else None

    def start(self, delay: float) -> None:
        """(Re)arm to fire ``delay`` seconds from now, replacing any pending fire."""
        handle = self._handle
        if handle is not None and handle._fired and not handle._cancelled:
            # The previous firing consumed the queue entry: recycle the handle.
            self._sim.reschedule(handle, delay)
            return
        self.cancel()
        # The handle calls the action itself, so it holds no reference back
        # to the timer: a dropped timer is freed by reference count.
        self._handle = self._sim.schedule(delay, self._action)

    def cancel(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None


class PeriodicTimer:
    """Repeating timer with per-cycle jittered intervals.

    Each cycle's length is drawn independently from ``interval`` — this is how
    RFC 2453 spaces periodic updates to avoid synchronization between routers.
    """

    __slots__ = ("_sim", "_interval", "_action", "_handle", "_running")

    def __init__(
        self,
        sim: Simulator,
        interval: JitteredInterval,
        action: Callable[[], None],
    ) -> None:
        self._sim = sim
        self._interval = interval
        self._action = action
        self._handle: Optional[EventHandle] = None
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    def start(self, initial_delay: Optional[float] = None) -> None:
        """Start the cycle; first fire after ``initial_delay`` (default: one
        sampled interval)."""
        self.stop()
        self._running = True
        delay = self._interval.sample() if initial_delay is None else initial_delay
        self._handle = self._sim.schedule(delay, self._fire)

    def stop(self) -> None:
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        if not self._running:
            return
        # The handle that invoked us just fired; re-arm it for the next cycle
        # (same object, new heap entry) before running the action so the
        # action can stop()/start() the timer without racing the cycle.
        self._handle = self._sim.reschedule(self._handle, self._interval.sample())
        self._action()
