"""Profile report: JSON schema, self-check, and human-readable summary.

``python -m repro profile`` emits one JSON document tying the three
observability sources together — the phase span tree, the metric registry
snapshot, and the sweep telemetry.  The format is versioned and
self-checkable: :func:`check_report` validates structure and internal
consistency (it embeds the registry's histogram invariants), so CI can
schema-check every emitted report and a corrupted report fails loudly
instead of feeding bad numbers into a regression dashboard.
"""

from __future__ import annotations

from typing import Any, Optional

from ..records import COUNT, INT, LIST, NUM, NUM_GE0, OBJECT, POSITIVE, TEXT
from ..records import check_envelope, check_fields, is_int, is_num, optional
from .live import _SPECS as _LOG_SPECS

__all__ = ["SCHEMA_VERSION", "REPORT_KIND", "build_report", "check_report", "format_report"]

SCHEMA_VERSION = 1
REPORT_KIND = "repro-profile-report"


def build_report(
    scenario: dict,
    observation: dict,
    sweep: Optional[dict] = None,
    meta: Optional[dict] = None,
) -> dict:
    """Assemble the versioned report document.

    ``observation`` is ``RunObservation.to_dict()`` (``phases`` + ``metrics``);
    ``sweep`` is ``SweepTelemetry.to_dict()`` or None; ``meta`` carries
    free-form context (config profile, CLI flags).
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": REPORT_KIND,
        "meta": meta or {},
        "scenario": scenario,
        "phases": observation.get("phases"),
        "metrics": observation.get("metrics", {}),
        "sweep": sweep,
    }


# --------------------------------------------------------------------------
# Schema check
# --------------------------------------------------------------------------


_ENVELOPE = {"schema_version": SCHEMA_VERSION, "kind": REPORT_KIND}
_SPAN_SPEC = {
    "name": TEXT,
    "wall_s": NUM_GE0,
    # Engine attribution: absent on spans that ran no events.
    "events": optional(INT),
    **dict.fromkeys(("run_wall_s", "sim_s", "mem_peak_kb"), optional(NUM)),
}


def _check_span(span: Any, path: str, problems: list[str]) -> None:
    check_fields(span, _SPAN_SPEC, path, problems)
    if not isinstance(span, dict):
        return
    children = span.get("children", [])
    if not isinstance(children, list):
        problems.append(f"{path}: 'children' must be a list")
        return
    for i, child in enumerate(children):
        _check_span(child, f"{path}.children[{i}]", problems)


def _check_metric(name: str, metric: Any, problems: list[str]) -> None:
    path = f"metrics[{name!r}]"
    if not isinstance(metric, dict):
        problems.append(f"{path}: must be an object")
        return
    kind = metric.get("kind")
    if kind == "counter":
        check_fields(metric, {"value": COUNT}, f"{path} (counter)", problems)
    elif kind == "gauge":
        if check_fields(metric, {"value": NUM, "hwm": NUM}, f"{path} (gauge)", problems):
            if metric["hwm"] < metric["value"]:
                problems.append(
                    f"{path}: gauge hwm {metric['hwm']} is below its value "
                    f"{metric['value']}"
                )
    elif kind == "histogram":
        bounds = metric.get("bounds")
        counts = metric.get("counts")
        count = metric.get("count")
        if not isinstance(bounds, list) or not bounds:
            problems.append(f"{path}: histogram needs a non-empty 'bounds' list")
            return
        if any(not is_num(b) for b in bounds):
            problems.append(f"{path}: histogram bounds must be numbers")
            return
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            problems.append(
                f"{path}: histogram bounds are not strictly increasing: {bounds}"
            )
        if not isinstance(counts, list) or len(counts) != len(bounds) + 1:
            problems.append(
                f"{path}: histogram needs len(bounds)+1 bucket counts, got "
                f"{counts!r}"
            )
        elif any(not is_int(c) or c < 0 for c in counts):
            problems.append(f"{path}: histogram bucket counts must be ints >= 0")
        elif not is_int(count) or sum(counts) != count:
            problems.append(
                f"{path}: histogram bucket counts sum to {sum(counts)} but "
                f"'count' says {count!r}"
            )
        check_fields(metric, {"total": NUM}, f"{path} (histogram)", problems)
    else:
        problems.append(f"{path}: unknown metric kind {kind!r}")


_SWEEP_SPEC = {
    "workers": POSITIVE,
    "wall_s": NUM,
    "busy_s": NUM,
    "utilization": (lambda v: is_num(v) and 0.0 <= v <= 1.0, "a number within [0, 1]"),
    **dict.fromkeys(("n_timeouts", "n_retries", "total_tasks", "completed_tasks"), COUNT),
    "resumed_tasks": COUNT,
    "seeds": LIST,
}
#: A ``SeedTiming`` is a log ``seed`` record without its progress fields.
_SEED_SPEC = {k: v for k, v in _LOG_SPECS["seed"].items() if k not in ("done", "total")}


def _check_sweep(sweep: Any, problems: list[str]) -> None:
    check_fields(sweep, _SWEEP_SPEC, "sweep", problems)
    if not isinstance(sweep, dict):
        return
    if sweep.get("slowest") is not None:
        check_fields(sweep["slowest"], _SEED_SPEC, "sweep.slowest", problems)
    seeds = sweep.get("seeds")
    for i, timing in enumerate(seeds if isinstance(seeds, list) else ()):
        check_fields(timing, _SEED_SPEC, f"sweep.seeds[{i}]", problems)


def check_report(report: Any) -> list[str]:
    """Validate a profile report; returns a list of problems (empty = ok)."""
    problems: list[str] = []
    if not isinstance(report, dict):
        return ["report must be a JSON object"]
    check_envelope(report, _ENVELOPE, "", problems)
    check_fields(report, {"scenario": OBJECT, "metrics": OBJECT}, "report", problems)
    if report.get("phases") is not None:
        _check_span(report["phases"], "phases", problems)
    if isinstance(report.get("metrics"), dict):
        for name, metric in report["metrics"].items():
            _check_metric(name, metric, problems)
    if report.get("sweep") is not None:
        _check_sweep(report["sweep"], problems)
    return problems


# --------------------------------------------------------------------------
# Human summary
# --------------------------------------------------------------------------


def _format_span(span: dict, lines: list[str], depth: int) -> None:
    label = f"{'  ' * depth}{span['name']}"
    extra = ""
    if "events" in span:
        rate = (
            span["events"] / span["run_wall_s"]
            if span.get("run_wall_s")
            else 0.0
        )
        extra = (
            f"  [{span['events']:,} events, {span.get('sim_s', 0.0):.1f} sim-s"
            + (f", {rate:,.0f} ev/s" if rate else "")
            + "]"
        )
    if span.get("mem_peak_kb") is not None:
        extra += f"  (peak {span['mem_peak_kb']:,.0f} KiB)"
    lines.append(f"{label:<28} {span['wall_s']*1e3:>9.1f} ms{extra}")
    for child in span.get("children", ()):
        _format_span(child, lines, depth + 1)


def format_report(report: dict) -> str:
    """Render the report for humans: phase tree, key metrics, sweep summary."""
    lines: list[str] = []
    scenario = report.get("scenario", {})
    lines.append(
        "profile: "
        + " ".join(f"{k}={v}" for k, v in scenario.items() if not isinstance(v, dict))
    )
    phases = report.get("phases")
    if phases:
        lines.append("")
        lines.append("phases (wall time):")
        _format_span(phases, lines, 0)
    metrics = report.get("metrics", {})
    if metrics:
        lines.append("")
        lines.append("metrics:")
        for name in sorted(metrics):
            m = metrics[name]
            if m["kind"] == "counter":
                lines.append(f"  {name:<32} {m['value']:>12,}")
            elif m["kind"] == "gauge":
                lines.append(f"  {name:<32} {m['value']:>12,.2f} (hwm {m['hwm']:,.2f})")
            else:
                mean = m["total"] / m["count"] if m["count"] else 0.0
                lines.append(
                    f"  {name:<32} n={m['count']:,} mean={mean:.3g} "
                    f"buckets={m['counts']}"
                )
    sweep = report.get("sweep")
    if sweep:
        lines.append("")
        lines.append(
            f"sweep: {sweep['completed_tasks']}/{sweep['total_tasks']} seeds "
            f"({sweep['resumed_tasks']} resumed) in {sweep['wall_s']:.2f}s on "
            f"{sweep['workers']} worker(s), utilization "
            f"{sweep['utilization']:.0%}, {sweep['n_timeouts']} timeout(s), "
            f"{sweep['n_retries']} retried attempt(s)"
        )
        slowest = sweep.get("slowest")
        if slowest and slowest.get("elapsed_s") is not None:
            lines.append(
                f"  slowest seed: {slowest['protocol']} "
                f"degree={slowest['degree']} seed={slowest['seed']} "
                f"({slowest['elapsed_s']:.2f}s)"
            )
    return "\n".join(lines)
