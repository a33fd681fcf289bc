"""One-command reproduction campaign.

``reproduce(config, out_dir)`` regenerates every figure of the paper's
evaluation and writes a self-contained results directory:

* ``figureN_*.svg`` — charts (dependency-free SVG);
* ``figureN_*.txt`` — the text tables/series the paper reports;
* ``results.json``  — every underlying run, reloadable via
  :func:`repro.experiments.persistence.load_points`;
* ``REPORT.md``     — a summary linking it all together.

Exposed on the CLI as ``python -m repro reproduce --out DIR``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from ..metrics.timeseries import BinnedSeries
from ..obs.profiler import NULL_PROFILER
from .config import ExperimentConfig
from .figures import ROWS, SweepTable, evaluate, headline
from .persistence import save_points
from .plotting import series_chart, sweep_chart
from .report import format_row
from .runner import run_sweep
from .validation import format_checks, validate_observations

__all__ = ["CampaignReport", "reproduce"]

#: The paper's rows in write order: row id -> its text file and, per panel,
#: its chart file and y-axis label.
_FILES = {
    "2": ("figure2_topologies.txt", ()),
    "3": ("figure3_drops.txt", (("figure3_drops.svg", "packet drops (no route)"),)),
    "4": ("figure4_ttl.txt", (("figure4_ttl.svg", "TTL expirations"),)),
    "5": ("figure5_throughput.txt", (("figure5_throughput.svg", "packets/second"),)),
    "6": ("figure6_convergence.txt",
          (("figure6a_forwarding.svg", "seconds"), ("figure6b_routing.svg", "seconds"))),
    "7": ("figure7_delay.txt", (("figure7_delay.svg", "seconds"),)),
}


@dataclass
class CampaignReport:
    """What a reproduction campaign produced."""

    out_dir: str
    config: ExperimentConfig
    artifacts: list[str] = field(default_factory=list)
    headline: dict[str, float] = field(default_factory=dict)

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)


def _write(report: CampaignReport, name: str, content: str) -> None:
    with open(report.path(name), "w", encoding="utf-8") as f:
        f.write(content)
        if not content.endswith("\n"):
            f.write("\n")
    report.artifacts.append(name)


def _chart(table: SweepTable, ylabel: str) -> str:
    """A panel as SVG: one line per protocol over degree, or per (protocol,
    degree) over the first 50 s after the failure, titled without units."""
    if isinstance(next(iter(table.values.values())), BinnedSeries):
        title = table.title.split(" (")[0]
        return series_chart(table.values, title, ylabel, t_min=-5, t_max=50)
    return sweep_chart(table, ylabel=ylabel)


def reproduce(
    config: Optional[ExperimentConfig] = None,
    out_dir: str = "reproduction",
    progress: bool = False,
    workers: int = 1,
    checkpoint_dir: Optional[str] = None,
    profiler=None,
    telemetry=None,
) -> CampaignReport:
    """Run the full figure suite and write all artifacts to ``out_dir``.

    The campaign simulates each (protocol, degree, seed) of ``config.grid()``
    once, in one sweep, and every figure is a projection of that sweep.
    ``workers`` parallelizes it over a process pool; ``checkpoint_dir``
    makes it durable: completed seeds are appended to a shard store there,
    an interrupted campaign resumes from the shards, and a campaign resumed
    from a complete store simulates nothing.

    ``profiler`` (a :class:`repro.obs.profiler.PhaseProfiler`) gets a
    ``sweep`` span (all the simulating) and one span per catalogue row,
    named by its id (projecting and rendering), so slow campaigns can be
    broken down by phase;
    ``telemetry`` (a :class:`repro.obs.sweeps.SweepTelemetry`) collects
    per-seed execution telemetry from the sweep.
    """
    config = config or ExperimentConfig.quick()
    profiler = profiler if profiler is not None else NULL_PROFILER
    os.makedirs(out_dir, exist_ok=True)
    report = CampaignReport(out_dir=out_dir, config=config)

    def log(msg: str) -> None:
        if progress:
            print(msg)

    log(f"Sweep: {len(config.grid())} scenario(s) ...")
    with profiler.span("sweep"):
        points = run_sweep(
            config, workers=workers, store=checkpoint_dir, telemetry=telemetry,
            progress=lambda done, total, msg: log(f"[{done}/{total}] {msg}"),
        )

    for row_id, (text, charts) in _FILES.items():
        row = ROWS[row_id]
        log(f"{row.panels[0].title} ...")
        with profiler.span(row_id):
            tables = evaluate(row, config, points)
            _write(report, text, format_row(row, tables, config))
            for table, (name, ylabel) in zip(tables, charts):
                _write(report, name, _chart(table, ylabel))
        if row_id == "6":
            # Here, not beside the sweep: REPORT.md lists artifacts in write order.
            save_points(points, report.path("results.json"))
            report.artifacts.append("results.json")

    log(f"{ROWS['head'].panels[0].title} ...")
    with profiler.span("head"):
        head = evaluate(ROWS["head"], config, points)[0]
        report.headline = headline(head)

    log("Validating the paper's Observations against the sweep ...")
    with profiler.span("validation"):
        checks = validate_observations(points)
        _write(report, "validation.txt", format_checks(checks))

    summary = [
        "# Reproduction report",
        "",
        "Paper: Pei, Wang, Massey, Wu, Zhang — *A Study of Packet Delivery",
        "Performance during Routing Convergence* (DSN 2003).",
        "",
        f"Configuration: {config.rows}x{config.cols} mesh, degrees "
        f"{list(config.degrees)}, {config.runs} seed(s)/point, "
        f"{config.rate_pps:g} pkt/s, {config.post_fail_window:g} s window.",
        "",
        f"Headline (degree {head.degrees[0]}): BGP dropped "
        f"{report.headline['bgp']:.0f} packets vs BGP-3's "
        f"{report.headline['bgp3']:.0f} (ratio {report.headline['ratio']:.1f}x).",
        "",
        "## Artifacts",
        "",
    ]
    passed = sum(1 for c in checks if c.passed)
    failed = sum(1 for c in checks if c.passed is False)
    summary += [f"* `{name}`" for name in report.artifacts]
    summary += [
        "",
        f"Observation checks: {passed} passed, {failed} failed "
        "(see `validation.txt`).",
        "",
        "Reload the raw runs with "
        "`repro.experiments.persistence.load_points('results.json')`.",
    ]
    _write(report, "REPORT.md", "\n".join(summary))
    log(f"done: {len(report.artifacts)} artifacts in {out_dir}/")
    return report
