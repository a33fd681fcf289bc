"""Topology event layer: typed link events, their scheduler, and drivers.

The paper's experiment injects *one* link failure on a static mesh.  This
module dissolves that single-failure assumption into three orthogonal
pieces:

* :class:`LinkEvent` — one typed topology change (``fail`` or ``restore``)
  with its own detection delay;
* :class:`LinkScheduler` — executes an ordered schedule of link events
  against a live network: the link's physical state flips at the event
  instant (packets on it die immediately on a fail), and the two endpoints
  are notified after the event's detection delay (link-layer keepalive);
* :class:`TopologyDriver` — anything that *generates* an event schedule.
  The paper's one-failure experiment is the trivial
  :class:`SingleLinkFailureDriver`; an explicit event list is a
  :class:`ScriptedDriver`; the mobility models in :mod:`repro.mobility`
  derive schedules from node movement and radio range.

State transitions are strict: failing a link that is already down, or
restoring one that is already up, raises :class:`~repro.sim.engine.
SimulationError` at the event instant.  (The old ``FailureInjector``
silently ignored both, which let a driver bug — e.g. a mobility model
emitting duplicate transitions — pass unnoticed while quietly skewing the
event bookkeeping.)  Restores are first-class events with their own records,
not an untracked side channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Protocol, runtime_checkable

from ..sim.engine import SimulationError, Simulator
from ..sim.tracing import LinkEventRecord
from ..sim.units import MILLISECONDS
from .network import Network

__all__ = [
    "DEFAULT_DETECTION_DELAY",
    "LinkEvent",
    "LinkScheduler",
    "TopologyDriver",
    "SingleLinkFailureDriver",
    "ScriptedDriver",
]

#: Endpoint detection delay (see DESIGN.md parameter reconstruction).
DEFAULT_DETECTION_DELAY = 50 * MILLISECONDS


@dataclass
class LinkEvent:
    """One scheduled topology change (and its bookkeeping record).

    ``detection_delay`` is per-event; ``None`` means "use the scheduler's
    default".  For ``fail`` events, ``restored_time`` is backfilled when a
    later ``restore`` of the same link executes, so a fail event records the
    full outage interval.
    """

    kind: str  # "fail" | "restore"
    a: int
    b: int
    time: float
    detection_delay: Optional[float] = None
    #: Fail events only: when a matching restore executed (None = never).
    restored_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("fail", "restore"):
            raise ValueError(f"unknown link event kind {self.kind!r}")
        if self.time < 0:
            raise ValueError(f"event time must be >= 0, got {self.time}")
        if self.detection_delay is not None and self.detection_delay < 0:
            raise ValueError(
                f"detection delay must be >= 0, got {self.detection_delay}"
            )

    @property
    def link_key(self) -> tuple[int, int]:
        """Canonical (min, max) endpoint pair."""
        return (self.a, self.b) if self.a < self.b else (self.b, self.a)

    @property
    def fail_time(self) -> float:
        """Legacy alias: the event instant (failure injection time)."""
        return self.time

    def detected_at(self, default_delay: float = DEFAULT_DETECTION_DELAY) -> float:
        """Time both endpoints know about the change.

        ``default_delay`` stands in when the event carries no delay of its
        own — pass the scheduler's (``config.detection_delay``).
        """
        if self.detection_delay is not None:
            return self.time + self.detection_delay
        return self.time + default_delay

    @property
    def detect_time(self) -> float:
        """:meth:`detected_at` under the module-default delay."""
        return self.detected_at()


@runtime_checkable
class TopologyDriver(Protocol):
    """Anything that generates a link-event schedule for one run."""

    def generate(self, until: float) -> list[LinkEvent]:
        """Events at/after t=0 and strictly before ``until``, time-ordered."""
        ...


@dataclass(frozen=True)
class SingleLinkFailureDriver:
    """The paper's scenario as a driver: one link fails, optionally repairs."""

    link: tuple[int, int]
    fail_at: float
    detection_delay: Optional[float] = None
    restore_at: Optional[float] = None

    def generate(self, until: float) -> list[LinkEvent]:
        a, b = self.link
        events = [
            LinkEvent("fail", a, b, self.fail_at, self.detection_delay)
        ]
        if self.restore_at is not None and self.restore_at < until:
            if self.restore_at <= self.fail_at:
                raise ValueError(
                    f"restore_at {self.restore_at} must be after fail_at "
                    f"{self.fail_at}"
                )
            events.append(
                LinkEvent("restore", a, b, self.restore_at, self.detection_delay)
            )
        return events


@dataclass(frozen=True)
class ScriptedDriver:
    """A driver that replays an explicit, caller-built event list."""

    events: tuple[LinkEvent, ...]

    def generate(self, until: float) -> list[LinkEvent]:
        out = [e for e in self.events if e.time < until]
        if any(
            out[i].time > out[i + 1].time for i in range(len(out) - 1)
        ):
            raise ValueError("scripted events must be time-ordered")
        return out


class LinkScheduler:
    """Executes an ordered schedule of link events against a live network.

    Each event flips the link's physical state the instant it fires (a fail
    kills everything queued and in flight with ``LINK_DOWN``), publishes a
    :class:`~repro.sim.tracing.LinkEventRecord`, and notifies both endpoint
    protocols after the event's detection delay.  All scheduling goes
    through the engine's closure-free ``schedule(..., *args)`` entry points.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        detection_delay: float = DEFAULT_DETECTION_DELAY,
    ) -> None:
        if detection_delay < 0:
            raise ValueError(f"detection delay must be >= 0, got {detection_delay}")
        self._sim = sim
        self._network = network
        self.detection_delay = detection_delay
        #: Every scheduled event, in schedule order.
        self.events: list[LinkEvent] = []

    # ------------------------------------------------------------- scheduling

    def add(self, event: LinkEvent) -> LinkEvent:
        """Schedule one event; the link must exist (fails loudly now)."""
        self._network.link(event.a, event.b)  # validate now, fail loudly early
        self.events.append(event)
        self._sim.schedule_at(event.time, self._execute, event)
        return event

    def load(self, events: Iterable[LinkEvent]) -> list[LinkEvent]:
        """Schedule a whole driver-generated schedule, in order."""
        return [self.add(event) for event in events]

    def run_driver(self, driver: TopologyDriver, until: float) -> list[LinkEvent]:
        """Generate ``driver``'s schedule up to ``until`` and load it."""
        return self.load(driver.generate(until))

    # Convenience constructors mirroring the old injector API ---------------

    def fail_link(
        self, a: int, b: int, at: float, detection_delay: Optional[float] = None
    ) -> LinkEvent:
        """Schedule the link (a, b) to fail at absolute time ``at``."""
        return self.add(LinkEvent("fail", a, b, at, detection_delay))

    def restore_link(
        self, a: int, b: int, at: float, detection_delay: Optional[float] = None
    ) -> LinkEvent:
        """Schedule the link to come back up at ``at`` (repair/churn).

        A first-class event: it appears in :attr:`events`, publishes a trace
        record, and raises at execution time if the link is already up.
        """
        return self.add(LinkEvent("restore", a, b, at, detection_delay))

    # --------------------------------------------------------- initial state

    def take_down_initially(self, links: Iterable[tuple[int, int]]) -> None:
        """Mark links down *before* the run starts, without events.

        Used by mobility scenarios: the network is built over the union of
        every link that ever exists, and links outside the initial
        connectivity start down.  No trace record is published and no
        endpoint is notified — the protocols are warm-started on the initial
        topology and never knew these links existed.
        """
        if self._sim.now != 0.0:
            raise SimulationError(
                "initial link state must be applied before the run starts"
            )
        for a, b in links:
            link = self._network.link(a, b)
            if not link.up:
                raise SimulationError(
                    f"link {link.endpoints} already down at initial state"
                )
            link.fail()

    # -------------------------------------------------------------- execution

    def _resolved_delay(self, event: LinkEvent) -> float:
        return (
            event.detection_delay
            if event.detection_delay is not None
            else self.detection_delay
        )

    def _execute(self, event: LinkEvent) -> None:
        link = self._network.link(event.a, event.b)
        if event.kind == "fail":
            if not link.up:
                raise SimulationError(
                    f"cannot fail link {link.endpoints} at t={event.time}: "
                    "already down"
                )
            link.fail()
            self._publish(event, up=False)
            self._sim.schedule(
                self._resolved_delay(event), self._notify_down, event.a, event.b
            )
        else:
            if link.up:
                raise SimulationError(
                    f"cannot restore link {link.endpoints} at t={event.time}: "
                    "already up"
                )
            link.restore()
            self._publish(event, up=True)
            key = event.link_key
            for prior in self.events:
                # Only fails that already executed: strict transitions
                # guarantee at most one un-restored executed fail per link.
                if (
                    prior.kind == "fail"
                    and prior.link_key == key
                    and prior.time <= event.time
                    and prior.restored_time is None
                ):
                    prior.restored_time = event.time
            self._sim.schedule(
                self._resolved_delay(event), self._notify_up, event.a, event.b
            )

    def _publish(self, event: LinkEvent, up: bool) -> None:
        bus = self._network.bus
        bus.counters.link_events += 1
        if bus.wants_link:
            bus.publish(
                LinkEventRecord(
                    time=self._sim.now, node_a=event.a, node_b=event.b, up=up
                )
            )

    def _notify_down(self, a: int, b: int) -> None:
        self._network.node(a).on_link_down(b)
        self._network.node(b).on_link_down(a)

    def _notify_up(self, a: int, b: int) -> None:
        self._network.node(a).on_link_up(b)
        self._network.node(b).on_link_up(a)
