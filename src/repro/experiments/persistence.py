"""Result persistence: save/load experiment outcomes as JSON.

Paper-scale sweeps take minutes; this module lets the harness checkpoint
results (`save_points`) and reload them for later analysis or plotting
(`load_points`) without re-simulating.  The format is plain JSON — stable,
diff-able, and readable outside Python.

One format, v3: each run records its measurements, the throughput/delay
series, loop and reordering reports, monitor findings and skips, its
``initial_path`` and an ``events`` list (kind, link, event and detection
times, and the attributed reconvergence wave); each point also records its
:class:`SweepFailure` entries.  A save→load→save round trip is
byte-identical.  Files written by the single-failure formats v1/v2 are
refused with an error naming the version found — re-run the sweep.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from ..metrics.loops import LoopReport
from ..metrics.reordering import ReorderingReport
from ..metrics.timeseries import BinnedSeries
from .runner import PointResult, SweepFailure
from .scenario import ScenarioResult, TopologyEventOutcome

__all__ = [
    "scenario_to_dict",
    "scenario_from_dict",
    "failure_to_dict",
    "failure_from_dict",
    "save_points",
    "load_points",
]

#: The one version :func:`save_points` / the sweep shard store write and
#: :func:`load_points` reads.
FORMAT_VERSION = 3


def _series_to_dict(series: BinnedSeries | None) -> dict | None:
    if series is None:
        return None
    return {"times": list(series.times), "values": list(series.values)}


def _series_from_dict(data: Mapping | None) -> BinnedSeries | None:
    if data is None:
        return None
    return BinnedSeries(times=tuple(data["times"]), values=tuple(data["values"]))


def _event_to_dict(event: TopologyEventOutcome) -> dict:
    return {
        "kind": event.kind,
        "link": list(event.link),
        "time": event.time,
        "detect_time": event.detect_time,
        "wave_start": event.wave_start,
        "wave_end": event.wave_end,
    }


def _event_from_dict(data: Mapping[str, Any]) -> TopologyEventOutcome:
    return TopologyEventOutcome(
        kind=data["kind"],
        link=tuple(data["link"]),
        time=data["time"],
        detect_time=data["detect_time"],
        wave_start=data.get("wave_start"),
        wave_end=data.get("wave_end"),
    )


def scenario_to_dict(result: ScenarioResult) -> dict:
    """JSON-ready representation of one run's measurements (format v3)."""
    return {
        "protocol": result.protocol,
        "degree": result.degree,
        "seed": result.seed,
        "sender": result.sender,
        "receiver": result.receiver,
        "initial_path": list(result.initial_path),
        "events": [_event_to_dict(e) for e in result.events],
        "expected_final_path": (
            list(result.expected_final_path)
            if result.expected_final_path is not None
            else None
        ),
        "sent": result.sent,
        "delivered": result.delivered,
        "drops_no_route": result.drops_no_route,
        "drops_ttl": result.drops_ttl,
        "drops_link_down": result.drops_link_down,
        "drops_queue": result.drops_queue,
        "routing_convergence": result.routing_convergence,
        "destination_convergence": result.destination_convergence,
        "forwarding_convergence": result.forwarding_convergence,
        "converged_to_expected": result.converged_to_expected,
        "transient_path_count": result.transient_path_count,
        "messages": result.messages,
        "withdrawals": result.withdrawals,
        "violations": list(result.violations),
        "monitor_skips": dict(result.monitor_skips),
        "dump_path": result.dump_path,
        "throughput": _series_to_dict(result.throughput),
        "delay": _series_to_dict(result.delay),
        "reordering": (
            {
                "delivered": result.reordering.delivered,
                "late_packets": result.reordering.late_packets,
                "max_displacement": result.reordering.max_displacement,
                "episodes": result.reordering.episodes,
            }
            if result.reordering is not None
            else None
        ),
        "loop_report": (
            {
                "delivered": result.loop_report.delivered,
                "escaped_loop": result.loop_report.escaped_loop,
                "loop_cycles": [list(c) for c in result.loop_report.loop_cycles],
                "max_extra_hops": result.loop_report.max_extra_hops,
            }
            if result.loop_report is not None
            else None
        ),
    }


def scenario_from_dict(data: Mapping[str, Any]) -> ScenarioResult:
    """Inverse of :func:`scenario_to_dict`.

    Present-but-empty collections are restored as empty, not collapsed to
    ``None``: only a JSON ``null`` (or a missing field) maps to ``None``.
    """
    reordering = None
    if data.get("reordering") is not None:
        r = data["reordering"]
        reordering = ReorderingReport(
            delivered=r["delivered"],
            late_packets=r["late_packets"],
            max_displacement=r["max_displacement"],
            episodes=r["episodes"],
        )
    loop_report = None
    if data.get("loop_report") is not None:
        lr = data["loop_report"]
        loop_report = LoopReport(
            delivered=lr["delivered"],
            escaped_loop=lr["escaped_loop"],
            loop_cycles=tuple(tuple(c) for c in lr["loop_cycles"]),
            max_extra_hops=lr["max_extra_hops"],
        )
    expected_final_path = data.get("expected_final_path")
    return ScenarioResult(
        protocol=data["protocol"],
        degree=data["degree"],
        seed=data["seed"],
        sender=data["sender"],
        receiver=data["receiver"],
        initial_path=tuple(data["initial_path"]),
        events=tuple(_event_from_dict(e) for e in data["events"]),
        expected_final_path=(
            tuple(expected_final_path) if expected_final_path is not None else None
        ),
        sent=data["sent"],
        delivered=data["delivered"],
        drops_no_route=data["drops_no_route"],
        drops_ttl=data["drops_ttl"],
        drops_link_down=data["drops_link_down"],
        drops_queue=data["drops_queue"],
        routing_convergence=data["routing_convergence"],
        destination_convergence=data.get("destination_convergence", 0.0),
        forwarding_convergence=data["forwarding_convergence"],
        converged_to_expected=data["converged_to_expected"],
        transient_path_count=data["transient_path_count"],
        violations=tuple(data.get("violations", ())),
        monitor_skips=dict(data.get("monitor_skips") or {}),
        dump_path=data.get("dump_path"),
        throughput=_series_from_dict(data.get("throughput")),
        delay=_series_from_dict(data.get("delay")),
        messages=data["messages"],
        withdrawals=data["withdrawals"],
        loop_report=loop_report,
        reordering=reordering,
    )


def failure_to_dict(failure: SweepFailure) -> dict:
    """JSON-ready representation of one :class:`SweepFailure`."""
    return {
        "protocol": failure.protocol,
        "degree": failure.degree,
        "seed": failure.seed,
        "error": failure.error,
    }


def failure_from_dict(data: Mapping[str, Any]) -> SweepFailure:
    """Inverse of :func:`failure_to_dict`."""
    return SweepFailure(
        protocol=data["protocol"],
        degree=data["degree"],
        seed=data["seed"],
        error=data["error"],
    )


def save_points(points: Mapping[tuple[str, int], PointResult], path: str) -> None:
    """Write a sweep (as from ``run_sweep``) to ``path`` as JSON (v3)."""
    payload = {
        "format_version": FORMAT_VERSION,
        "points": [
            {
                "protocol": protocol,
                "degree": degree,
                "runs": [scenario_to_dict(r) for r in point.runs],
                "failures": [failure_to_dict(f) for f in point.failures],
            }
            for (protocol, degree), point in sorted(points.items())
        ],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=1)


def load_points(path: str) -> dict[tuple[str, int], PointResult]:
    """Read a sweep previously written by :func:`save_points`."""
    with open(path, "r", encoding="utf-8") as f:
        payload = json.load(f)
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported results format version {version!r} in {path!r} "
            f"(this build reads only version {FORMAT_VERSION})"
        )
    out: dict[tuple[str, int], PointResult] = {}
    for entry in payload["points"]:
        point = PointResult(protocol=entry["protocol"], degree=entry["degree"])
        point.runs.extend(scenario_from_dict(r) for r in entry["runs"])
        point.failures.extend(
            failure_from_dict(f) for f in entry.get("failures", ())
        )
        out[(entry["protocol"], entry["degree"])] = point
    return out
