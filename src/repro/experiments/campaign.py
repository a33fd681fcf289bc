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

from ..obs.profiler import NULL_PROFILER
from .config import ExperimentConfig
from .figures import (
    figure2_topologies,
    figure3_drops_no_route,
    figure4_ttl_expirations,
    figure5_throughput,
    figure6_convergence,
    figure7_delay,
    headline_bgp_vs_bgp3,
)
from .persistence import save_points
from .plotting import series_chart, sweep_chart
from .report import format_series_grid, format_sweep_table
from .runner import run_sweep
from .validation import format_checks, validate_observations

__all__ = ["CampaignReport", "reproduce"]


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
    ``workers`` parallelizes it over a supervised process pool;
    ``checkpoint_dir`` makes it durable: completed seeds are appended to a
    shard store there, an interrupted campaign resumes from the shards, and
    a campaign resumed from a complete store simulates nothing.

    ``profiler`` (a :class:`repro.obs.profiler.PhaseProfiler`) gets a
    ``sweep`` span (all the simulating) and one span per figure (projecting
    and rendering), so slow campaigns can be broken down by phase;
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

    def panel(paper_degrees: tuple[int, ...]) -> tuple[int, ...]:
        """The paper's panel degrees this campaign sweeps (else its first)."""
        swept = tuple(d for d in paper_degrees if d in config.degrees)
        return swept or config.degrees[:1]

    log(f"Sweep: {len(config.grid())} scenario(s) ...")
    with profiler.span("sweep"):
        points = run_sweep(
            config, workers=workers, store=checkpoint_dir, telemetry=telemetry,
            progress=lambda done, total, msg: log(f"[{done}/{total}] {msg}"),
        )

    log("Figure 2: topology family ...")
    with profiler.span("figure2_topologies"):
        topo_info = figure2_topologies(config.rows, config.cols, (4, 5, 6))
        lines = ["Figure 2: regular mesh family", ""]
        for degree, info in sorted(topo_info.items()):
            lines.append(
                f"degree {degree}: {info['n_nodes']} nodes, {info['n_links']} links, "
                f"histogram {sorted(info['degree_histogram'].items())}"
            )
        _write(report, "figure2_topologies.txt", "\n".join(lines))

    log("Figure 3: drops vs degree ...")
    with profiler.span("figure3_drops"):
        fig3 = figure3_drops_no_route(config, points=points)
        _write(report, "figure3_drops.txt", format_sweep_table(fig3))
        _write(report, "figure3_drops.svg",
               sweep_chart(fig3, ylabel="packet drops (no route)"))

    log("Figure 4: TTL expirations vs degree ...")
    with profiler.span("figure4_ttl"):
        fig4 = figure4_ttl_expirations(config, points=points)
        _write(report, "figure4_ttl.txt", format_sweep_table(fig4))
        _write(report, "figure4_ttl.svg", sweep_chart(fig4, ylabel="TTL expirations"))

    log("Figure 5: throughput vs time ...")
    with profiler.span("figure5_throughput"):
        fig5 = figure5_throughput(config, panel((3, 4, 6)), points=points)
        _write(
            report,
            "figure5_throughput.txt",
            format_series_grid(
                fig5, "Figure 5: instantaneous throughput (pkt/s), failure at t=0",
                t_min=-5, t_max=min(50.0, config.post_fail_window - 10), step=5,
            ),
        )
        _write(
            report,
            "figure5_throughput.svg",
            series_chart(fig5, "Figure 5: instantaneous throughput",
                         "packets/second", t_min=-5, t_max=50),
        )

    log("Figure 6: convergence vs degree ...")
    with profiler.span("figure6_convergence"):
        fwd, rt = figure6_convergence(config, points=points)
        tables = format_sweep_table(fwd, 2) + "\n\n" + format_sweep_table(rt, 2)
        _write(report, "figure6_convergence.txt", tables)
        _write(report, "figure6a_forwarding.svg", sweep_chart(fwd, ylabel="seconds"))
        _write(report, "figure6b_routing.svg", sweep_chart(rt, ylabel="seconds"))
        # Here, not beside the sweep: REPORT.md lists artifacts in write order.
        save_points(points, report.path("results.json"))
        report.artifacts.append("results.json")

    log("Figure 7: delay vs time ...")
    with profiler.span("figure7_delay"):
        fig7 = figure7_delay(config, panel((4, 5, 6)), points=points)
        _write(
            report,
            "figure7_delay.txt",
            format_series_grid(
                fig7, "Figure 7: instantaneous packet delay (s), failure at t=0",
                t_min=-5, t_max=min(50.0, config.post_fail_window - 10), step=5,
                precision=4,
            ),
        )
        _write(
            report,
            "figure7_delay.svg",
            series_chart(fig7, "Figure 7: instantaneous packet delay", "seconds",
                         t_min=-5, t_max=50),
        )

    log("Headline: BGP vs BGP-3 ...")
    with profiler.span("headline"):
        headline_degree = 5 if 5 in config.degrees else config.degrees[-1]
        report.headline = headline_bgp_vs_bgp3(
            config, degree=headline_degree, points=points
        )

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
        f"Headline (degree {headline_degree}): BGP dropped "
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
