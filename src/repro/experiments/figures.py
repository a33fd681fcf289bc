"""The figure catalogue: every figure, ablation and extension is one row.

A :class:`Row` declares one experiment of DESIGN.md §3: its id, one
:class:`Panel` per table it draws (title, what it reads from each cell's
:class:`PointResult`, digits), the config delta it runs under, and the cells
it simulates (protocol x degree, or protocol x one swept config value).
:func:`evaluate` turns a row into one :class:`SweepTable` per panel, and
``report.format_row`` renders it.  ``reproduce``, ``repro figure <id>``, the
examples and the benchmarks iterate :data:`ROWS`; nothing here touches
matplotlib, so the harness runs in headless CI.

Row ids are DESIGN.md's experiment ids: the paper's figures keep their
numbers (``"2"`` ... ``"7"``; Figure 6 is one row with two panels) and
every other row is its id in lower case (``head``, ``abl1`` ... ``abl5``,
``ovh``, ``ext1`` ... ``ext8``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple, Optional

from ..topology.mesh import interior_nodes, regular_mesh
from ..topology.validate import check_interior_degree, degree_histogram
from .config import ExperimentConfig
from .extensions import (
    run_multiflow_scenario,
    run_random_topology_scenario,
    transport_with_baseline,
)
from .runner import PointResult, mean, run_point

__all__ = ["ROWS", "Panel", "Row", "SweepTable", "evaluate", "headline"]


#: A sweep as ``run_sweep`` returns it: (protocol, degree) -> point.
Points = dict[tuple[str, int], PointResult]


@dataclass
class SweepTable:
    """One panel of a row: a value per (protocol, key) cell, where the key is
    the degree or, for a row that sweeps a config value, that value."""

    title: str
    protocols: tuple[str, ...]
    degrees: tuple
    values: dict[tuple[str, Any], Any] = field(default_factory=dict)
    #: What the keys in ``degrees`` are (the first column's header).
    axis: str = "degree"

    def value(self, protocol: str, degree) -> Any:
        return self.values[(protocol, degree)]

    def series(self, protocol: str) -> list[tuple[Any, Any]]:
        """(degree, value) points for one protocol curve."""
        return [(d, self.values[(protocol, d)]) for d in self.degrees]


class Panel(NamedTuple):
    """One table of a row: its title and what it reads from each cell."""

    title: str
    read: Callable[[PointResult], Any]
    #: Digits after the decimal point when rendered.
    digits: int = 1


class Cell(NamedTuple):
    """One simulated point: ``protocol`` at ``degree`` under ``config``."""

    protocol: str
    #: The table key: the degree, or the swept config value.
    key: Any
    degree: int
    config: ExperimentConfig
    #: Per-seed runner ``(protocol, degree, seed, config) -> run``; None runs
    #: :func:`run_point` (or reads the cell from the campaign's sweep).
    runner: Optional[Callable] = None


#: A row's cells for the config it runs under: the table axis and the cells.
Cells = Callable[[ExperimentConfig], tuple[str, list[Cell]]]


@dataclass(frozen=True)
class Row:
    """One figure, ablation or extension."""

    id: str
    panels: tuple[Panel, ...]
    #: Config overrides the row runs under (its protocols, fixed degrees).
    delta: Mapping[str, Any]
    cells: Cells


def evaluate(
    row: Row, config: Optional[ExperimentConfig] = None, points: Optional[Points] = None
) -> tuple[SweepTable, ...]:
    """One table per panel of ``row``, run under ``config`` plus the row's delta.

    ``points`` is a sweep of ``config`` (as from ``run_sweep``, e.g. the
    campaign's pooled, checkpointed one): a cell it holds is projected from
    it, since a point's runs depend on neither ``config.protocols`` nor
    ``config.degrees``.  Every other cell is simulated.
    """
    config = config or ExperimentConfig.quick()
    axis, cells = row.cells(config.with_(**row.delta))
    results = {(c.protocol, c.key): _result(c, config, points) for c in cells}
    protocols = tuple(dict.fromkeys(c.protocol for c in cells))
    keys = tuple(dict.fromkeys(c.key for c in cells))
    return tuple(
        SweepTable(
            panel.title, protocols, keys,
            {key: panel.read(point) for key, point in results.items()}, axis,
        )
        for panel in row.panels
    )


def _result(cell: Cell, config: ExperimentConfig, points: Optional[Points]) -> PointResult:
    protocol, degree, own = cell.protocol, cell.degree, cell.config
    if cell.runner is not None:
        runs = [cell.runner(protocol, degree, seed, own) for seed in own.seeds]
        return PointResult(protocol, degree, runs=runs)
    if points is not None and (protocol, degree) in points and own == config.with_(
        protocols=own.protocols, degrees=own.degrees
    ):
        return points[(protocol, degree)]
    return run_point(protocol, degree, own)


def headline(table: SweepTable) -> dict[str, float]:
    """The §1 sentence off the ``head`` row: each BGP's drops and their ratio."""
    (degree,) = table.degrees
    out = {protocol: table.value(protocol, degree) for protocol in ("bgp", "bgp3")}
    out["ratio"] = out["bgp"] / out["bgp3"] if out["bgp3"] else float("inf")
    return out


# ------------------------------------------------------------------- cells


def _grid(config: ExperimentConfig, runner: Optional[Callable] = None):
    """Every protocol at every degree of the config."""
    return "degree", [
        Cell(p, d, d, config, runner) for p in config.protocols for d in config.degrees
    ]


def _paper_degrees(*paper: int) -> Cells:
    """The paper's panel degrees the config sweeps, else its first degree."""

    def cells(config: ExperimentConfig):
        swept = tuple(d for d in paper if d in config.degrees)
        return _grid(config.with_(degrees=swept or config.degrees[:1]))

    return cells


def _headline_degree(config: ExperimentConfig):
    """Degree 5 (the paper's) if swept, else the richest swept degree."""
    return _grid(config.with_(degrees=(5 if 5 in config.degrees else config.degrees[-1],)))


def _swept(axis: str, overrides: Mapping[Any, dict]) -> Cells:
    """Every protocol at the config's one degree, once per swept value."""

    def cells(config: ExperimentConfig):
        (degree,) = config.degrees
        return axis, [
            Cell(p, key, degree, config.with_(**change))
            for key, change in overrides.items()
            for p in config.protocols
        ]

    return cells


def _per_seed(runner: Callable) -> Cells:
    """The grid, each seed run by ``runner`` instead of ``run_scenario``."""
    return partial(_grid, runner=runner)


def _mesh(protocol: str, degree: int, seed: int, config: ExperimentConfig) -> str:
    """Figure 2's one line per degree: build the mesh, verify its interior
    degree, report its size and degree histogram."""
    topo = regular_mesh(config.rows, config.cols, degree)
    check_interior_degree(topo, interior_nodes(topo, config.rows, config.cols), degree)
    return (
        f"degree {degree}: {topo.n_nodes} nodes, {topo.n_links} links, "
        f"histogram {sorted(degree_histogram(topo).items())}"
    )


def _meshes(config: ExperimentConfig):
    return "degree", [Cell("mesh", d, d, config.with_(runs=1), _mesh) for d in (4, 5, 6)]


# ------------------------------------------------------------------- reads


def _runs(*fields: str) -> Callable[[PointResult], float]:
    """Mean over a cell's runs of the sum of ``fields`` (dotted paths)."""
    getters = [attrgetter(f) for f in fields]
    return lambda point: mean([float(sum(g(r) for g in getters)) for r in point.runs])


def _stall_penalty(point: PointResult) -> float:
    penalties = [r.stall_penalty for r in point.runs if r.stall_penalty is not None]
    # No run completed: the stall is unbounded, not zero.
    return mean(penalties) if penalties else float("inf")


def _drops_not_on_failed_link(point: PointResult) -> float:
    # In-flight deaths on the failed link are identical across protocols
    # (they happen before any protocol reacts); exclude them from the
    # protocol comparison.
    return point.mean_total_drops - mean([r.drops_link_down for r in point.runs])


_DROPS = attrgetter("mean_drops_no_route")
_TTL = attrgetter("mean_drops_ttl")
_FORWARDING = attrgetter("mean_forwarding_convergence")
_ROUTING = attrgetter("mean_routing_convergence")
_MESSAGES = attrgetter("mean_messages")
_DELIVERY = attrgetter("mean_delivery_ratio")

_BGP = ("bgp", "bgp-pd", "bgp3", "bgp3-pd")
_RATES = (10.0, 20.0, 60.0, 150.0)
_DELAYS = (0.005, 0.05, 0.5, 2.0)
_SIZES = ((5, 5), (7, 7), (10, 10))


#: Every row, in DESIGN.md §3 order.
ROWS: Mapping[str, Row] = MappingProxyType({row.id: row for row in (
    # The regular-mesh family itself, at the config's rows x cols.
    Row("2", (Panel("Figure 2: regular mesh family", lambda p: p.runs[0]),), {}, _meshes),
    Row("3", (Panel("Figure 3: packet drops due to no route vs node degree", _DROPS),),
        {}, _grid),
    Row("4", (Panel("Figure 4: TTL expirations during convergence vs node degree", _TTL),),
        {}, _grid),
    Row("5", (Panel("Figure 5: instantaneous throughput (pkt/s), failure at t=0",
                    PointResult.mean_throughput),), {}, _paper_degrees(3, 4, 6)),
    Row("6", (
        Panel("Figure 6a: forwarding path convergence time vs node degree", _FORWARDING, 2),
        Panel("Figure 6b: network routing convergence time vs node degree", _ROUTING, 2),
    ), {}, _grid),
    Row("7", (Panel("Figure 7: instantaneous packet delay (s), failure at t=0",
                    PointResult.mean_delay, 4),), {}, _paper_degrees(4, 5, 6)),
    # §1: same topology and packet rate, BGP drops many times BGP-3's packets.
    Row("head", (Panel("Headline: packet drops off the failed link, BGP vs BGP-3",
                       _drops_not_on_failed_link),),
        {"protocols": ("bgp", "bgp3")}, _headline_degree),
    # §5.2: "results could have been different had the MRAI timer been
    # implemented on a per (neighbor, destination) basis".
    Row("abl1", (Panel("Ablation: MRAI granularity (TTL expirations)", _TTL),),
        {"protocols": _BGP, "degrees": (5,)}, _grid),
    # §4.1: RIP vs DBF isolates one design choice, keeping alternate paths.
    Row("abl2", (Panel("Ablation: alternate-path cache (drops, RIP vs DBF)", _DROPS),),
        {"protocols": ("rip", "dbf")}, _grid),
    # Offered load moves loop losses from TTL expiry into queue overflow
    # once a transient loop saturates its links (DESIGN.md's rate choice).
    Row("abl3", (
        Panel("Ablation: offered load vs loss cause (TTL expirations)", _TTL),
        Panel("Ablation: offered load vs loss cause (queue overflows)", _runs("drops_queue")),
        Panel("Ablation: offered load vs loss cause (drops, no route)", _DROPS),
    ), {"protocols": ("bgp",), "degrees": (5,)},
        _swept("pkt/s", {rate: {"rate_pps": rate} for rate in _RATES})),
    # Detection delay sits far below every protocol timer: on a rich mesh an
    # alternate-path protocol loses ~rate x delay plus the in-flight packet.
    Row("abl4", (
        Panel("Ablation: failure-detection delay (total drops)", _runs("total_drops")),
        Panel("Ablation: failure-detection delay (forwarding convergence, s)",
              _FORWARDING, 3),
    ), {"protocols": ("dbf",), "degrees": (6,)},
        _swept("delay(s)", {delay: {"detection_delay": delay} for delay in _DELAYS})),
    # Sender-side loop detection saves messages without changing routes.
    Row("abl5", (
        Panel("Ablation: sender-side loop detection (routing messages)", _MESSAGES),
        Panel("Ablation: sender-side loop detection (drops, no route)", _DROPS),
        Panel("Ablation: sender-side loop detection (TTL expirations)", _TTL),
        Panel("Ablation: sender-side loop detection (routing convergence, s)",
              _ROUTING, 2),
    ), {"protocols": ("bgp3", "bgp3-ssld"), "degrees": (4,)}, _grid),
    # Related work [28]: routing messages sent network-wide after the failure.
    Row("ovh", (Panel("Overhead: routing messages in the post-failure window vs degree",
                      _MESSAGES, 0),), {}, _grid),
    Row("ext1", (Panel("Extension: link-state SPF vs distance/path vector (drops, no route)",
                       _DROPS),), {"protocols": ("rip", "dbf", "bgp3", "spf")}, _grid),
    # §6: three flows, two staggered on-path failures.
    Row("ext2", (
        Panel("Extension: multiple flows (delivery ratio)", _runs("delivery_ratio"), 3),
        Panel("Extension: multiple flows (worst flow's delivery ratio)",
              _runs("worst_flow_ratio"), 3),
        Panel("Extension: multiple flows (drops, no route + TTL)",
              _runs("drops_no_route", "drops_ttl")),
    ), {"degrees": (4,)}, _per_seed(run_multiflow_scenario)),
    # §6: the stall an 8000-segment reliable transfer suffers, against a
    # failure-free baseline.
    Row("ext3", (
        Panel("Extension: reliable transport (stall penalty, s)", _stall_penalty, 2),
        Panel("Extension: reliable transport (retransmissions)",
              _runs("stats.retransmissions")),
    ), {"degrees": (4,)}, _per_seed(partial(transport_with_baseline, total_segments=8000))),
    # The mesh findings are not lattice artifacts.
    Row("ext4", (Panel("Extension: drops (no route) on random regular graphs", _DROPS),),
        {"degrees": (4, 6)}, _per_seed(run_random_topology_scenario)),
    # Intro refs [4]/[15]: damping mistakes path exploration for flapping.
    Row("ext5", (
        Panel("Extension: route flap damping (delivery ratio)", _DELIVERY, 3),
        Panel("Extension: route flap damping (drops, no route)", _DROPS),
        Panel("Extension: route flap damping (routing convergence, s)", _ROUTING, 2),
    ), {"protocols": ("bgp3", "bgp3-rfd"), "degrees": (4,)}, _grid),
    # Related work [1]/[27]: SPF with a computation throttle, with and
    # without precomputed loop-free alternates.
    Row("ext6", (Panel("Extension: IGP fast reroute (drops on the dead link or no route)",
                       _runs("drops_link_down", "drops_no_route")),),
        {"protocols": ("spf", "spf-slow", "spf-lfa"), "degrees": (4, 6)}, _grid),
    # §6 vs [6]: DUAL buys loop freedom by freezing routes while diffusing.
    Row("ext7", (
        Panel("Extension: loop freedom cost, DBF vs DUAL (TTL expirations)", _TTL),
        Panel("Extension: loop freedom cost, DBF vs DUAL (drops, no route)", _DROPS),
        Panel("Extension: loop freedom cost, DBF vs DUAL (routing convergence, s)",
              _ROUTING, 2),
    ), {"protocols": ("dbf", "dual")}, _grid),
    # §6's first step: larger meshes at degree 4.
    Row("ext8", (
        Panel("Extension: network size (drops, no route)", _DROPS),
        Panel("Extension: network size (delivery ratio)", _DELIVERY, 3),
        Panel("Extension: network size (routing convergence, s)", _ROUTING, 2),
    ), {"protocols": ("rip", "dbf", "bgp3"), "degrees": (4,)},
        _swept("nodes", {r * c: {"rows": r, "cols": c} for r, c in _SIZES})),
)})
