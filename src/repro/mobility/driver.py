"""Sample a mobility model into a link-event schedule.

The :class:`MobilityDriver` advances a :class:`~repro.mobility.base.
MobilityModel` on a fixed cadence, derives range-based connectivity at each
sample, and diffs consecutive samples into :class:`~repro.net.dynamics.
LinkEvent` fail/restore pairs.  Because a live :class:`~repro.net.network.
Network` cannot grow links mid-run, the driver also reports the *union* of
every link that ever exists: the scenario builds the network over the
union, silently takes the initially-absent links down
(:meth:`~repro.net.dynamics.LinkScheduler.take_down_initially`), and the
first time a union-only link comes into range it is an ordinary restore.

``build`` is one-shot per horizon: mobility models are stateful, so the
driver caches the schedule it derived and refuses to re-integrate the same
model past a different horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from ..net.dynamics import LinkEvent
from ..topology.graph import Topology
from ..topology.spatial import (
    Position,
    connectivity,
    connectivity_changes,
    derive_topology,
)
from .base import MobilityModel

__all__ = ["MobilityDriver", "MobilitySchedule"]


@dataclass(frozen=True)
class MobilitySchedule:
    """Everything a scenario needs to run one mobility trace.

    ``topology`` spans the union of every link that ever exists over the
    horizon; ``initial_links`` is the connectivity at t=0.  ``events`` is
    the time-ordered fail/restore schedule (downs before ups within one
    sampling step, each in canonical link order).
    """

    topology: Topology
    initial_links: frozenset[tuple[int, int]]
    initial_positions: dict[int, Position]
    events: tuple[LinkEvent, ...]

    @property
    def initially_down(self) -> list[tuple[int, int]]:
        """Union links absent from the t=0 connectivity, canonical order."""
        return sorted(set(self.topology.links) - self.initial_links)

    @cached_property
    def _component_at_start(self) -> dict[int, int]:
        """Linked node -> representative of its t=0 connected component."""
        parent: dict[int, int] = {}

        def find(node: int) -> int:
            while parent.setdefault(node, node) != node:
                parent[node] = node = parent[parent[node]]
            return node

        for x, y in self.initial_links:
            parent[find(x)] = find(y)
        return {node: find(node) for node in parent}

    def connected_at_start(self, a: int, b: int) -> bool:
        """Whether a and b are in the same t=0 connected component."""
        component = self._component_at_start
        return component.get(a, a) == component.get(b, b)


class MobilityDriver:
    """Derives a link schedule from node movement; a ``TopologyDriver``.

    Positions are sampled at ``start + k * step`` for k >= 1 (the t=0
    connectivity is the initial state, not an event), so the same model,
    range, and cadence always produce a byte-identical schedule.
    """

    def __init__(
        self,
        model: MobilityModel,
        radio_range: float,
        step: float,
        start: float = 0.0,
        detection_delay: Optional[float] = None,
        **link_attrs,
    ) -> None:
        if step <= 0:
            raise ValueError(f"sampling step must be positive, got {step}")
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        self._model = model
        self._radio_range = radio_range
        self._step = step
        self._start = start
        self._detection_delay = detection_delay
        self._link_attrs = link_attrs
        self._schedule: Optional[MobilitySchedule] = None
        self._horizon: Optional[float] = None

    def build(self, until: float) -> MobilitySchedule:
        """Integrate the model to ``until`` and return the full schedule."""
        if self._schedule is not None:
            if until != self._horizon:
                raise ValueError(
                    f"schedule already built to t={self._horizon}; a mobility "
                    "model cannot be re-integrated to a different horizon"
                )
            return self._schedule
        initial_positions = self._model.positions()
        current = connectivity(initial_positions, self._radio_range)
        initial = frozenset(current)
        union = set(current)
        events: list[LinkEvent] = []
        k = 1
        while self._start + k * self._step < until:
            t = self._start + k * self._step
            self._model.advance(self._step)
            sampled = connectivity(self._model.positions(), self._radio_range)
            downs, ups = connectivity_changes(current, sampled)
            for a, b in downs:
                events.append(
                    LinkEvent("fail", a, b, t, self._detection_delay)
                )
            for a, b in ups:
                events.append(
                    LinkEvent("restore", a, b, t, self._detection_delay)
                )
            union |= sampled
            current = sampled
            k += 1
        topology = derive_topology(
            initial_positions,
            self._radio_range,
            name="mobility",
            links=union,
            **self._link_attrs,
        )
        self._schedule = MobilitySchedule(
            topology=topology,
            initial_links=initial,
            initial_positions=initial_positions,
            events=tuple(events),
        )
        self._horizon = until
        return self._schedule

    def generate(self, until: float) -> list[LinkEvent]:
        """TopologyDriver interface: the event schedule up to ``until``."""
        return list(self.build(until).events)
