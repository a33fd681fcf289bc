"""Convergence measurement (paper §5.4).

Two distinct clocks, both started at failure *detection*:

* **routing convergence time** — until the last FIB change for the monitored
  destination anywhere in the network ("restoration of new path information
  at all the routers");
* **forwarding-path convergence delay** — until the hop-by-hop walk from the
  sender's router to the destination settles on its final (post-failure
  shortest) path.  This can end long before routing convergence: remote
  routers may still be churning while the sender's path is already final.

The tracker additionally records every distinct *transient forwarding path*
(the packet-level dynamics of §2) by re-walking the FIB view after each
route change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ..sim.tracing import RouteChangeRecord, TraceBus

__all__ = [
    "PathSnapshot",
    "ConvergenceTracker",
    "NetworkConvergenceWatcher",
    "walk_forwarding_path",
    "attribute_waves",
]


@dataclass(frozen=True)
class PathSnapshot:
    """The forwarding path from source to destination at one instant.

    ``state`` is ``"ok"`` (complete path), ``"broken"`` (a router had no next
    hop; ``path`` ends at that router) or ``"loop"`` (the walk revisited a
    node; ``path`` ends at the first repeat).
    """

    time: float
    path: tuple[int, ...]
    state: str

    @property
    def complete(self) -> bool:
        return self.state == "ok"


def walk_forwarding_path(
    fib_view: dict[int, Optional[int]], src: int, dest: int, max_hops: int = 1000
) -> PathSnapshot:
    """Follow next hops from ``src`` toward ``dest`` through ``fib_view``."""
    path = [src]
    seen = {src}
    node = src
    for _ in range(max_hops):
        if node == dest:
            return PathSnapshot(time=0.0, path=tuple(path), state="ok")
        nxt = fib_view.get(node)
        if nxt is None:
            return PathSnapshot(time=0.0, path=tuple(path), state="broken")
        path.append(nxt)
        if nxt in seen:
            return PathSnapshot(time=0.0, path=tuple(path), state="loop")
        seen.add(nxt)
        node = nxt
    return PathSnapshot(time=0.0, path=tuple(path), state="loop")


class NetworkConvergenceWatcher:
    """Network-wide routing convergence: the last FIB change at *any* router
    for *any* destination (Figure 6(b)'s "network routing convergence time").
    """

    def __init__(self, bus: TraceBus) -> None:
        #: Every FIB-change instant, in bus order (non-decreasing).  Kept so
        #: multi-event runs can attribute each reconvergence wave to the
        #: topology event whose detection window it falls in.
        self.change_times: list[float] = []
        bus.subscribe("route", self._on_route_change)

    def _on_route_change(self, record: RouteChangeRecord) -> None:
        self.change_times.append(record.time)

    def convergence_time(self, detect_time: float) -> float:
        """Seconds from detection to the final FIB change network-wide."""
        if not self.change_times or self.change_times[-1] < detect_time:
            return 0.0
        return self.change_times[-1] - detect_time


def attribute_waves(
    detect_times: Sequence[float], change_times: list[float], end_time: float
) -> list[tuple[Optional[float], Optional[float]]]:
    """Attribute FIB-change activity to the topology event windows.

    Event ``i``'s window runs from its detection instant to the next event's
    detection instant (the last window ends at ``end_time``).  Returns one
    ``(first_change, last_change)`` pair per event — ``(None, None)`` when
    nothing moved in that window.  When reconvergence waves overlap (event
    ``i+1`` detected while ``i``'s wave is still running), a change belongs
    to the window it *occurs* in: the tail of the earlier wave is attributed
    to the later event, which is the only causally sound split an online
    observer can make without protocol introspection.
    """
    out: list[tuple[Optional[float], Optional[float]]] = []
    for i, start in enumerate(detect_times):
        stop = detect_times[i + 1] if i + 1 < len(detect_times) else end_time
        window = [t for t in change_times if start <= t < stop]
        if window:
            out.append((window[0], window[-1]))
        else:
            out.append((None, None))
    return out


class ConvergenceTracker:
    """Watches FIB changes for one destination across the whole network."""

    def __init__(self, bus: TraceBus, dest: int, src: int) -> None:
        self.dest = dest
        self.src = src
        self._fib_view: dict[int, Optional[int]] = {}
        self.route_change_times: list[float] = []
        self.snapshots: list[PathSnapshot] = []
        bus.subscribe("route", self._on_route_change)

    def seed(self, next_hops: Mapping[int, Optional[int]], time: float) -> None:
        """Start from every node's next hop toward the destination at ``time``
        (after warm start, before the first event)."""
        self._fib_view.update(next_hops)
        snap = walk_forwarding_path(self._fib_view, self.src, self.dest)
        self.snapshots.append(PathSnapshot(time=time, path=snap.path, state=snap.state))

    def _on_route_change(self, record: RouteChangeRecord) -> None:
        if record.dest != self.dest:
            return
        self._fib_view[record.node] = record.new_next_hop
        self.route_change_times.append(record.time)
        snap = walk_forwarding_path(self._fib_view, self.src, self.dest)
        last = self.snapshots[-1] if self.snapshots else None
        if last is None or snap.path != last.path or snap.state != last.state:
            self.snapshots.append(
                PathSnapshot(time=record.time, path=snap.path, state=snap.state)
            )

    # ------------------------------------------------------------ measurements

    @property
    def final_path(self) -> Optional[PathSnapshot]:
        return self.snapshots[-1] if self.snapshots else None

    def routing_convergence_time(self, detect_time: float) -> float:
        """Seconds from detection to the last FIB change for the destination."""
        after = [t for t in self.route_change_times if t >= detect_time]
        if not after:
            return 0.0
        return max(after) - detect_time

    def forwarding_convergence_delay(self, detect_time: float) -> float:
        """Seconds from detection until the sender->receiver path last changed."""
        after = [s.time for s in self.snapshots if s.time >= detect_time]
        if not after:
            return 0.0
        return max(after) - detect_time

    def transient_paths(self, since: float) -> list[PathSnapshot]:
        """Distinct forwarding paths observed at/after ``since``."""
        return [s for s in self.snapshots if s.time >= since]

    def converged_to(self, expected_path: tuple[int, ...]) -> bool:
        """True if the current forwarding path equals ``expected_path``."""
        final = self.final_path
        return final is not None and final.complete and final.path == expected_path
