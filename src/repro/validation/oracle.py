"""Differential convergence oracle.

On a stable (quiesced) post-failure topology, every convergent protocol in
this package must agree on path *costs*: RIP and DBF carry hop-metric
distance vectors, the BGP variants carry AS-path lengths, and SPF carries
Dijkstra costs — on the unit-cost meshes of the paper these are the same
number, and all of them must equal an offline SPF oracle.  The oracle runs
the *same* scenario (same topology, same endpoints, same failed link —
scenario randomness depends only on the seed, not the protocol) under each
protocol, snapshots every node's routing state, and asserts:

* **cost equality** — each node's ``route_metric(dest)`` equals the SPF
  oracle cost on the post-failure graph, for every protocol that quiesced
  within the observation window (still-churning runs are reported as
  skipped, not failed);
* **per-protocol envelopes** — behavioral bounds from the paper: RIP never
  forms a forwarding loop (zero ``TTL_EXPIRED`` drops, Observation 2);
  every protocol delivers something; drops never exceed the packets sent;
* **monitor cleanliness** — the full online-monitor catalog ran during each
  scenario and recorded nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..experiments.config import ExperimentConfig
from ..routing.catalog import protocol_spec, settle_margin
from .monitors import MonitorSuite, RibConsistencyMonitor

__all__ = [
    "ProtocolOutcome",
    "DifferentialReport",
    "run_differential",
    "run_churn_differential",
]

#: Default protocol triple: the paper's cache-less / cached distance-vector
#: pair plus a path-vector variant.
DEFAULT_PROTOCOLS = ("dbf", "rip", "bgp3")


@dataclass
class ProtocolOutcome:
    """One protocol's end state in a differential run."""

    protocol: str
    sent: int
    delivered: int
    drops_ttl: int
    total_drops: int
    converged_to_expected: bool
    quiesced: bool
    #: node -> dest -> metric (None = unreachable) at the end of the run
    #: (:attr:`MonitorSuite.end_metrics`).
    metrics: dict[int, dict[int, Optional[int]]] = field(default_factory=dict)
    monitor_violations: tuple[str, ...] = ()


@dataclass
class DifferentialReport:
    """Outcome of one differential oracle invocation."""

    degree: int
    seed: int
    protocols: tuple[str, ...]
    outcomes: dict[str, ProtocolOutcome] = field(default_factory=dict)
    cost_mismatches: list[str] = field(default_factory=list)
    envelope_violations: list[str] = field(default_factory=list)
    monitor_violations: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (
            self.cost_mismatches
            or self.envelope_violations
            or self.monitor_violations
        )

    def all_violations(self) -> list[str]:
        return self.cost_mismatches + self.envelope_violations + self.monitor_violations

    def summary(self) -> str:
        status = "OK" if self.ok else "FAIL"
        extra = f", {len(self.skipped)} skipped" if self.skipped else ""
        return (
            f"[{status}] degree={self.degree} seed={self.seed} "
            f"protocols={','.join(self.protocols)}: "
            f"{len(self.all_violations())} violation(s){extra}"
        )


def _judge(
    report: DifferentialReport, protocol: str, result, suite: MonitorSuite
) -> RibConsistencyMonitor:
    """Record one protocol's outcome, monitor findings and delivery
    envelopes in ``report``; return its RIB monitor, which skipped the run
    if the network did not quiesce."""
    rib = next(m for m in suite.monitors if isinstance(m, RibConsistencyMonitor))
    outcome = ProtocolOutcome(
        protocol=protocol,
        sent=result.sent,
        delivered=result.delivered,
        drops_ttl=result.drops_ttl,
        total_drops=result.total_drops,
        converged_to_expected=result.converged_to_expected,
        quiesced=rib.skipped is None,
        metrics=suite.end_metrics,
        monitor_violations=tuple(str(v) for v in suite.violations),
    )
    report.outcomes[protocol] = outcome
    report.monitor_violations += [f"{protocol}: {v}" for v in outcome.monitor_violations]
    if result.delivered <= 0:
        report.envelope_violations.append(f"{protocol}: delivered nothing")
    if result.delivered + result.total_drops > result.sent:
        report.envelope_violations.append(
            f"{protocol}: delivered {result.delivered} + dropped "
            f"{result.total_drops} > sent {result.sent}"
        )
    return rib


def run_differential(
    degree: int,
    seed: int,
    config: Optional[ExperimentConfig] = None,
    protocols: tuple[str, ...] = DEFAULT_PROTOCOLS,
) -> DifferentialReport:
    """Run one scenario under each protocol and cross-check convergence."""
    from ..experiments.scenario import run_scenario

    config = (config or ExperimentConfig.quick()).with_(validate=False)
    report = DifferentialReport(degree=degree, seed=seed, protocols=tuple(protocols))

    for protocol in protocols:
        suite = MonitorSuite()
        result = run_scenario(protocol, degree, seed, config, monitors=suite)
        if protocol.startswith("rip") and result.drops_ttl > 0:
            report.envelope_violations.append(
                f"{protocol}: {result.drops_ttl} TTL_EXPIRED drops — RIP must "
                f"never form a forwarding loop (Observation 2)"
            )
        rib = _judge(report, protocol, result, suite)

        # Cost equality against the SPF oracle (identical across protocols —
        # the scenario's topology and failure depend only on the seed).
        if rib.skipped is not None:
            report.skipped.append(
                f"{protocol}: not quiesced ({rib.skipped}) — cost equality not judged"
            )
            continue
        reactive = protocol_spec(protocol).reactive
        active = suite.context.active_dests
        for node_id, row in sorted(suite.end_metrics.items()):
            expected_row = rib.oracle.get(node_id, {})
            for dest, actual in sorted(row.items()):
                if reactive:
                    # On-demand convergence: only destinations with traffic
                    # are owed routes, and only nodes that hold one (the
                    # discovery flood's path) are judged for cost.
                    if dest not in active or actual is None:
                        continue
                expected = expected_row.get(dest)
                if actual != expected:
                    report.cost_mismatches.append(
                        f"{protocol}: node {node_id} -> dest {dest}: metric "
                        f"{actual} != oracle cost {expected}"
                    )
    return report


def run_churn_differential(
    seed: int,
    config: ExperimentConfig,
    protocols: tuple[str, ...] = ("aodv", "dsr", "olsr"),
) -> DifferentialReport:
    """Differential oracle on a mobility-churn scenario.

    Runs the same seed's movement schedule under each protocol with the full
    monitor catalog attached.  ``config.churn.settle_time`` must leave a
    quiet tail longer than every protocol's settle margin — the end-of-run
    oracle comparison (strict SPF equality for convergent protocols,
    active-destination validity and never-beats-oracle for reactive ones,
    enforced by :class:`~repro.validation.monitors.RibConsistencyMonitor`)
    is meaningless on a still-moving field, and a run that fails to quiesce
    is reported as skipped, not passed.
    """
    from ..experiments.churn import run_churn_scenario

    if config.churn is None:
        raise ValueError("run_churn_differential requires config.churn")
    needed = max(settle_margin(p) for p in protocols) + 2.0
    if config.churn.settle_time < needed:
        raise ValueError(
            f"churn settle_time {config.churn.settle_time} too short for "
            f"{protocols}: need >= {needed} of quiet tail to judge quiescence"
        )
    config = config.with_(validate=False)
    report = DifferentialReport(degree=0, seed=seed, protocols=tuple(protocols))

    for protocol in protocols:
        suite = MonitorSuite()
        result = run_churn_scenario(protocol, seed, config, monitors=suite)
        rib = _judge(report, protocol, result, suite)
        if rib.skipped is not None:
            report.skipped.append(
                f"{protocol}: not quiesced ({rib.skipped}) — end state not judged"
            )
    return report
