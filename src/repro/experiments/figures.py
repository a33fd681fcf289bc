"""Per-figure reproduction harnesses.

One function per figure of the paper's evaluation (plus the headline claim
and the ablations DESIGN.md calls out).  Each returns plain data structures
(:class:`SweepTable` or series dicts) that the benchmarks and
``repro.experiments.report`` render; nothing here touches matplotlib so the
harness runs in headless CI.

Figure index (see DESIGN.md for the full mapping):

* Figure 2  — the regular mesh family itself
* Figure 3  — packet drops due to no route vs node degree
* Figure 4  — TTL expirations vs node degree
* Figure 5  — instantaneous throughput vs time (degrees 3, 4, 6)
* Figure 6  — forwarding-path & network routing convergence vs degree
* Figure 7  — instantaneous packet delay vs time (degrees 4, 5, 6)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..metrics.timeseries import BinnedSeries
from ..topology.mesh import interior_nodes, regular_mesh
from ..topology.validate import check_interior_degree, degree_histogram
from .config import ExperimentConfig
from .runner import PointResult, mean, run_point

__all__ = [
    "SweepTable",
    "figure2_topologies",
    "figure3_drops_no_route",
    "figure4_ttl_expirations",
    "figure5_throughput",
    "figure6_convergence",
    "figure7_delay",
    "headline_bgp_vs_bgp3",
    "ablation_mrai_granularity",
    "ablation_alternate_cache",
    "ablation_load_sensitivity",
    "extension_linkstate",
    "extension_multiflow",
    "extension_transport",
    "extension_random_topology",
    "extension_flap_damping",
    "extension_fast_reroute",
    "extension_loop_freedom_cost",
    "overhead_sweep",
    "ablation_ssld",
    "ablation_detection_delay",
    "extension_scale",
]


#: A sweep as ``run_sweep`` returns it: (protocol, degree) -> point.
Points = dict[tuple[str, int], PointResult]


@dataclass
class SweepTable:
    """Degree-by-protocol grid of scalar results (one paper figure panel)."""

    title: str
    protocols: tuple[str, ...]
    degrees: tuple[int, ...]
    values: dict[tuple[str, int], float] = field(default_factory=dict)
    points: Points = field(default_factory=dict)

    def value(self, protocol: str, degree: int) -> float:
        return self.values[(protocol, degree)]

    def series(self, protocol: str) -> list[tuple[int, float]]:
        """(degree, value) points for one protocol curve."""
        return [(d, self.values[(protocol, d)]) for d in self.degrees]


def _point(
    protocol: str, degree: int, config: ExperimentConfig, points: Optional[Points]
) -> PointResult:
    """``points``' own result for this cell, else a fresh :func:`run_point`.

    Seeds and grid order of ``run_sweep`` match ``run_point``, so a figure is
    identical either way; cells outside the sweep's grid are simulated.
    """
    if points is not None and (protocol, degree) in points:
        return points[(protocol, degree)]
    return run_point(protocol, degree, config)


def _sweep(
    title: str,
    config: Optional[ExperimentConfig],
    metric: Callable[[PointResult], float],
    points: Optional[Points] = None,
) -> SweepTable:
    config = config or ExperimentConfig.quick()
    table = SweepTable(title=title, protocols=config.protocols, degrees=config.degrees)
    for protocol in config.protocols:
        for degree in config.degrees:
            point = _point(protocol, degree, config, points)
            table.points[(protocol, degree)] = point
            table.values[(protocol, degree)] = metric(point)
    return table


def _series(
    config: Optional[ExperimentConfig],
    degrees: tuple[int, ...],
    curve: Callable[[PointResult], BinnedSeries],
    points: Optional[Points],
) -> dict[tuple[str, int], BinnedSeries]:
    config = config or ExperimentConfig.quick()
    return {
        (protocol, degree): curve(_point(protocol, degree, config, points))
        for protocol in config.protocols
        for degree in degrees
    }


# --------------------------------------------------------------------- FIG 2


def figure2_topologies(
    rows: int = 7, cols: int = 7, degrees: tuple[int, ...] = (4, 5, 6)
) -> dict[int, dict]:
    """The regular-mesh family of Figure 2: build each topology and report
    its structural properties (interior degree regularity is verified)."""
    out: dict[int, dict] = {}
    for degree in degrees:
        topo = regular_mesh(rows, cols, degree)
        interior = interior_nodes(topo, rows, cols)
        check_interior_degree(topo, interior, degree)
        out[degree] = {
            "name": topo.name,
            "n_nodes": topo.n_nodes,
            "n_links": topo.n_links,
            "interior_degree": degree,
            "degree_histogram": degree_histogram(topo),
            "connected": topo.is_connected(),
        }
    return out


# ---------------------------------------------------------------- FIGS 3-7
#
# Every figure below is a view of the same (protocol, degree) runs.  Each
# accepts ``points``, a precomputed sweep (as from ``run_sweep``, e.g. the
# campaign's pooled, checkpointed one), and projects it instead of simulating.


def figure3_drops_no_route(
    config: Optional[ExperimentConfig] = None, points: Optional[Points] = None
) -> SweepTable:
    """Average number of packet drops due to no route vs node degree."""
    return _sweep(
        "Figure 3: packet drops due to no route vs node degree",
        config,
        lambda p: p.mean_drops_no_route,
        points,
    )


def figure4_ttl_expirations(
    config: Optional[ExperimentConfig] = None, points: Optional[Points] = None
) -> SweepTable:
    """Average number of TTL expirations (loop deaths) vs node degree."""
    return _sweep(
        "Figure 4: TTL expirations during convergence vs node degree",
        config,
        lambda p: p.mean_drops_ttl,
        points,
    )


def figure5_throughput(
    config: Optional[ExperimentConfig] = None,
    degrees: tuple[int, ...] = (3, 4, 6),
    points: Optional[Points] = None,
) -> dict[tuple[str, int], BinnedSeries]:
    """Instantaneous receiver throughput vs time (failure at t=0)."""
    return _series(config, degrees, PointResult.mean_throughput, points)


def figure6_convergence(
    config: Optional[ExperimentConfig] = None, points: Optional[Points] = None
) -> tuple[SweepTable, SweepTable]:
    """(a) forwarding-path convergence delay and (b) network routing
    convergence time, vs node degree (two metrics of the same points)."""
    forwarding = _sweep(
        "Figure 6a: forwarding path convergence time vs node degree",
        config,
        lambda p: p.mean_forwarding_convergence,
        points,
    )
    routing = _sweep(
        "Figure 6b: network routing convergence time vs node degree",
        config,
        lambda p: p.mean_routing_convergence,
        forwarding.points,
    )
    return forwarding, routing


def figure7_delay(
    config: Optional[ExperimentConfig] = None,
    degrees: tuple[int, ...] = (4, 5, 6),
    points: Optional[Points] = None,
) -> dict[tuple[str, int], BinnedSeries]:
    """Instantaneous end-to-end delay of delivered packets vs time."""
    return _series(config, degrees, PointResult.mean_delay, points)


# ------------------------------------------------------------------ headline


def headline_bgp_vs_bgp3(
    config: Optional[ExperimentConfig] = None,
    degree: int = 5,
    points: Optional[Points] = None,
) -> dict[str, float]:
    """§1 headline: with the same topology and packet rate, BGP drops many
    times more packets than the 3-second-MRAI variant."""
    config = config or ExperimentConfig.quick()
    out: dict[str, float] = {}
    for protocol in ("bgp", "bgp3"):
        point = _point(protocol, degree, config, points)
        out[protocol] = point.mean_total_drops - _mean_link_down(point)
    out["ratio"] = out["bgp"] / out["bgp3"] if out["bgp3"] else float("inf")
    return out


def _mean_link_down(point: PointResult) -> float:
    # In-flight deaths on the failed link are identical across protocols
    # (they happen before any protocol reacts); exclude them from the
    # protocol comparison.
    return mean([r.drops_link_down for r in point.runs])


# ----------------------------------------------------------------- ablations


def ablation_mrai_granularity(
    config: Optional[ExperimentConfig] = None, degree: int = 5
) -> SweepTable:
    """Per-neighbor vs per-(neighbor, destination) MRAI (paper §5.2: 'results
    could have been different had the MRAI timer been implemented on a per
    (neighbor, destination) basis')."""
    config = (config or ExperimentConfig.quick()).with_(
        protocols=("bgp", "bgp-pd", "bgp3", "bgp3-pd"), degrees=(degree,)
    )
    return _sweep(
        f"Ablation: MRAI granularity (TTL expirations, degree {degree})",
        config,
        lambda p: p.mean_drops_ttl,
    )


def ablation_alternate_cache(config: Optional[ExperimentConfig] = None) -> SweepTable:
    """RIP vs DBF isolates exactly one design choice — keeping alternate-path
    information — which the paper identifies as the decisive factor (§4.1)."""
    config = (config or ExperimentConfig.quick()).with_(protocols=("rip", "dbf"))
    return _sweep(
        "Ablation: alternate-path cache (drops, RIP vs DBF)",
        config,
        lambda p: p.mean_drops_no_route,
    )


def ablation_load_sensitivity(
    config: Optional[ExperimentConfig] = None,
    degree: int = 5,
    rates: tuple[float, ...] = (10.0, 20.0, 60.0, 150.0),
) -> dict[float, dict[str, float]]:
    """How offered load moves convergence losses from TTL expiry into queue
    overflow once a transient loop saturates its links (DESIGN.md's parameter
    reconstruction rationale, made measurable)."""
    base = config or ExperimentConfig.quick()
    out: dict[float, dict[str, float]] = {}
    for rate in rates:
        cfg = base.with_(rate_pps=rate)
        point = run_point("bgp", degree, cfg)
        out[rate] = {
            "ttl": point.mean_drops_ttl,
            "queue": sum(r.drops_queue for r in point.runs) / point.n_runs,
            "no_route": point.mean_drops_no_route,
        }
    return out


def extension_linkstate(config: Optional[ExperimentConfig] = None) -> SweepTable:
    """Future-work extension: link-state SPF against the paper's protocols."""
    config = (config or ExperimentConfig.quick()).with_(
        protocols=("rip", "dbf", "bgp3", "spf")
    )
    return _sweep(
        "Extension: link-state SPF vs distance/path vector (drops, no route)",
        config,
        lambda p: p.mean_drops_no_route,
    )


def extension_multiflow(
    config: Optional[ExperimentConfig] = None,
    degree: int = 4,
    n_flows: int = 3,
    n_failures: int = 2,
) -> dict[str, dict[str, float]]:
    """Future-work extension (paper §6): multiple flows, overlapping failures.

    Returns per-protocol aggregate and worst-flow delivery ratios plus the
    network-wide drop counts, averaged over ``config.runs`` seeds.
    """
    from .extensions import run_multiflow_scenario

    config = config or ExperimentConfig.quick()
    out: dict[str, dict[str, float]] = {}
    for protocol in config.protocols:
        runs = [
            run_multiflow_scenario(
                protocol, degree, seed, config,
                n_flows=n_flows, n_failures=n_failures,
            )
            for seed in config.seeds
        ]
        out[protocol] = {
            "delivery_ratio": mean([r.delivery_ratio for r in runs]),
            "worst_flow_ratio": mean([r.worst_flow_ratio for r in runs]),
            "convergence_drops": mean(
                [float(r.drops_no_route + r.drops_ttl) for r in runs]
            ),
        }
    return out


def extension_transport(
    config: Optional[ExperimentConfig] = None,
    degree: int = 4,
    total_segments: int = 8000,
) -> dict[str, dict[str, float]]:
    """Future-work extension (paper §6): end-to-end reliable transport.

    Measures the transfer-completion stall each protocol's convergence gap
    imposes on a window/timeout transport, versus a failure-free baseline.
    """
    from .extensions import transport_with_baseline

    config = config or ExperimentConfig.quick()
    out: dict[str, dict[str, float]] = {}
    for protocol in config.protocols:
        runs = [
            transport_with_baseline(protocol, degree, seed, config, total_segments)
            for seed in config.seeds
        ]
        penalties = [r.stall_penalty for r in runs if r.stall_penalty is not None]
        out[protocol] = {
            # No run completed: the stall is unbounded, not zero.
            "stall_penalty": mean(penalties) if penalties else float("inf"),
            "retransmissions": mean([float(r.stats.retransmissions) for r in runs]),
        }
    return out


def overhead_sweep(config: Optional[ExperimentConfig] = None) -> SweepTable:
    """Routing-message overhead during the convergence window vs degree.

    The paper's related work ([28], Zaumen & Garcia-Luna-Aceves) measures
    update counts during convergence; this harness reports the mean number
    of routing messages sent network-wide in the post-failure window.
    """
    return _sweep(
        "Overhead: routing messages in the post-failure window vs degree",
        config,
        lambda p: p.mean_messages,
    )


def ablation_ssld(
    config: Optional[ExperimentConfig] = None, degree: int = 4
) -> dict[str, dict[str, float]]:
    """Sender-side vs receiver-side loop detection.

    The paper models receiver-side discard of looping paths; SSLD filters
    them at the sender, saving messages without changing the routes chosen.
    """
    config = config or ExperimentConfig.quick()
    out: dict[str, dict[str, float]] = {}
    for protocol in ("bgp3", "bgp3-ssld"):
        point = run_point(protocol, degree, config)
        out[protocol] = {
            "messages": point.mean_messages,
            "drops_no_route": point.mean_drops_no_route,
            "drops_ttl": point.mean_drops_ttl,
            "routing_convergence": point.mean_routing_convergence,
        }
    return out


def extension_scale(
    config: Optional[ExperimentConfig] = None,
    sizes: tuple[tuple[int, int], ...] = ((5, 5), (7, 7), (10, 10)),
    degree: int = 4,
    protocols: tuple[str, ...] = ("rip", "dbf", "bgp3"),
) -> dict[tuple[str, int], dict[str, float]]:
    """Larger network sizes (the paper's first stated future-work step).

    Sweeps the mesh side length at fixed degree.  Expected shape: RIP's
    losses stay pinned to its periodic-update clock (network-size
    independent); the alternate-path protocols' behavior depends only on
    local alternates, so their delivery stays high while their network-wide
    convergence time grows with path lengths.
    """
    config = config or ExperimentConfig.quick()
    out: dict[tuple[str, int], dict[str, float]] = {}
    for rows, cols in sizes:
        cfg = config.with_(rows=rows, cols=cols)
        for protocol in protocols:
            point = run_point(protocol, degree, cfg)
            out[(protocol, rows * cols)] = {
                "drops_no_route": point.mean_drops_no_route,
                "delivery_ratio": point.mean_delivery_ratio,
                "routing_convergence": point.mean_routing_convergence,
            }
    return out


def ablation_detection_delay(
    config: Optional[ExperimentConfig] = None,
    degree: int = 6,
    delays: tuple[float, ...] = (0.005, 0.05, 0.5, 2.0),
    protocol: str = "dbf",
) -> dict[float, dict[str, float]]:
    """Failure-detection delay sensitivity.

    The paper fixes link-layer detection at a small constant and argues the
    exact value is immaterial because it sits far below every protocol
    timer.  This ablation verifies that: for an alternate-path protocol on a
    rich mesh, the post-failure loss is just rate x detection_delay plus the
    in-flight packet — until the delay grows to protocol-timer scale.
    """
    config = config or ExperimentConfig.quick()
    out: dict[float, dict[str, float]] = {}
    for delay in delays:
        cfg = config.with_(detection_delay=delay)
        point = run_point(protocol, degree, cfg)
        total = [r.total_drops for r in point.runs]
        out[delay] = {
            "total_drops": sum(total) / len(total),
            "expected_floor": config.rate_pps * delay,
            "forwarding_convergence": point.mean_forwarding_convergence,
        }
    return out


def extension_loop_freedom_cost(
    config: Optional[ExperimentConfig] = None,
    degrees: tuple[int, ...] = (3, 4, 5, 6),
) -> dict[tuple[str, int], dict[str, float]]:
    """DUAL vs DBF: the paper's §6 trade-off, measured.

    DUAL ([6]) buys provable loop freedom by freezing routes during
    diffusing computations; DBF switches instantly but can loop.  Reports
    TTL deaths (loops) and no-route drops (freezes/switch-over gaps) for
    both, per degree.
    """
    config = config or ExperimentConfig.quick()
    out: dict[tuple[str, int], dict[str, float]] = {}
    for protocol in ("dbf", "dual"):
        for degree in degrees:
            point = run_point(protocol, degree, config)
            out[(protocol, degree)] = {
                "ttl": point.mean_drops_ttl,
                "no_route": point.mean_drops_no_route,
                "routing_convergence": point.mean_routing_convergence,
            }
    return out


def extension_fast_reroute(
    config: Optional[ExperimentConfig] = None,
    degrees: tuple[int, ...] = (4, 6),
) -> dict[tuple[str, int], float]:
    """IGP fast reroute (the paper's related work [1]/[27]): SPF with a
    realistic computation throttle, with and without precomputed Loop-Free
    Alternates.  Reports mean stale-route drops (packets that died on the
    dead link or routeless) per failure."""
    config = config or ExperimentConfig.quick()
    out: dict[tuple[str, int], float] = {}
    for protocol in ("spf", "spf-slow", "spf-lfa"):
        for degree in degrees:
            point = run_point(protocol, degree, config)
            stale = [
                r.drops_link_down + r.drops_no_route for r in point.runs
            ]
            out[(protocol, degree)] = sum(stale) / len(stale)
    return out


def extension_flap_damping(
    config: Optional[ExperimentConfig] = None,
    degree: int = 4,
) -> dict[str, dict[str, float]]:
    """Extension: RFC 2439 route flap damping during convergence.

    The paper's introduction cites Mao et al. ([15]): damping mistakes
    convergence-period path exploration for flapping and suppresses the
    routes recovery needs.  Compares BGP-3 with and without damping.
    """
    config = config or ExperimentConfig.quick()
    out: dict[str, dict[str, float]] = {}
    for protocol in ("bgp3", "bgp3-rfd"):
        point = run_point(protocol, degree, config)
        out[protocol] = {
            "delivery_ratio": point.mean_delivery_ratio,
            "drops_no_route": point.mean_drops_no_route,
            "routing_convergence": point.mean_routing_convergence,
        }
    return out


def extension_random_topology(
    config: Optional[ExperimentConfig] = None,
    degrees: tuple[int, ...] = (4, 6),
) -> SweepTable:
    """Future-work extension: the experiment on random regular graphs.

    Cross-checks that the mesh findings (drops fall with degree; RIP worst)
    are not artifacts of the lattice structure.
    """
    from .extensions import run_random_topology_scenario

    config = config or ExperimentConfig.quick()
    table = SweepTable(
        title="Extension: drops (no route) on random regular graphs",
        protocols=config.protocols,
        degrees=degrees,
    )
    for protocol in config.protocols:
        for degree in degrees:
            runs = [
                run_random_topology_scenario(protocol, degree, seed, config)
                for seed in config.seeds
            ]
            table.values[(protocol, degree)] = mean([r.drops_no_route for r in runs])
    return table
