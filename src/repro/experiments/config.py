"""Experiment configuration.

Two profiles:

* ``ExperimentConfig.paper()`` — the paper's setup: 7x7 mesh, degrees 3-8,
  10 runs per point, 100 pkt/s CBR, 70 s post-failure observation (covers
  RIP's 30 s periodic recovery and BGP's ~30 s MRAI loops).
* ``ExperimentConfig.quick()`` — same protocol timers (those are the physics
  under study), but fewer runs/degrees and a lighter packet rate, for tests
  and benchmarks.

Timeline (warm-started runs): protocols are installed converged at t=0,
traffic starts at ``traffic_start``, the failure fires at ``fail_time``, and
the run ends at ``fail_time + post_fail_window``.  All reported series are
normalized so the failure is at t=0.

Note on the distance-vector infinity: the RFC value 16 is the protocol
default, but a degree-3 7x7 mesh plus two host access links can reach path
costs near 16, so experiments use 32 to keep "unreachable" meaning what the
paper meant (see DESIGN.md).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

from dataclasses import fields as dataclass_fields
from typing import Optional

from ..net.dynamics import DEFAULT_DETECTION_DELAY
from ..net.link import DEFAULT_QUEUE_CAPACITY
from ..routing.catalog import PROTOCOLS, protocol_spec

__all__ = [
    "ChurnConfig",
    "ExperimentConfig",
    "PROTOCOL_NAMES",
    "MATRIX_PROTOCOLS",
    "MOBILITY_MODELS",
    "PARTITION_STRATEGIES",
]

#: Mobility models understood by :mod:`repro.mobility`.
MOBILITY_MODELS = ("waypoint", "gauss-markov", "manhattan")

#: Topology partition strategies understood by :mod:`repro.dist`.  Defined
#: here (not in repro.dist) so config validation needs no dist import.
PARTITION_STRATEGIES = ("mincut", "stripe")


@dataclass(frozen=True)
class ChurnConfig:
    """Mobility-driven churn: a spatial node field whose movement flaps links.

    When attached to an :class:`ExperimentConfig`, scenarios run on a
    topology derived from node positions and radio range instead of the
    paper's static mesh; link up/down events are generated by the chosen
    mobility model (see ``docs/dynamics.md``).  All randomness is drawn from
    the run's :class:`~repro.sim.rng.RngStreams`, so the same seed produces
    a byte-identical event schedule.
    """

    #: One of :data:`MOBILITY_MODELS`.
    model: str = "waypoint"
    n_nodes: int = 16
    #: Simulation area (width, height, depth) in meters; depth 0 = planar.
    area: tuple[float, float, float] = (1000.0, 1000.0, 0.0)
    #: Radio range: nodes within this distance share a link.
    radio_range: float = 400.0
    #: Node speed band (m/s) for waypoint/manhattan.
    speed_min: float = 5.0
    speed_max: float = 15.0
    #: Waypoint dwell time on arrival (s).
    pause: float = 2.0
    #: Gauss-Markov memory (0 = memoryless, 1 = straight line) and mean speed.
    alpha: float = 0.85
    mean_speed: float = 10.0
    #: Manhattan street grid (blocks across, blocks down).
    blocks: tuple[int, int] = (4, 4)
    #: Connectivity sampling interval (s): movement is integrated and link
    #: transitions emitted on this cadence.
    step: float = 1.0
    #: Quiet tail (s): movement stops this long before the end of the run so
    #: routing can quiesce — required for any end-of-run oracle comparison
    #: (set it past the protocol's settle margin).  0 = move to the end.
    settle_time: float = 0.0

    def __post_init__(self) -> None:
        if self.model not in MOBILITY_MODELS:
            raise ValueError(
                f"unknown mobility model {self.model!r} "
                f"(expected one of {MOBILITY_MODELS})"
            )
        if self.n_nodes < 2:
            raise ValueError("churn needs at least 2 nodes")
        if len(self.area) != 3 or any(d < 0 for d in self.area):
            raise ValueError("area must be (width, height, depth), all >= 0")
        if self.area[0] <= 0 or self.area[1] <= 0:
            raise ValueError("area width and height must be positive")
        if self.radio_range <= 0:
            raise ValueError("radio_range must be positive")
        if not 0 < self.speed_min <= self.speed_max:
            raise ValueError("need 0 < speed_min <= speed_max")
        if self.pause < 0:
            raise ValueError("pause must be >= 0")
        if not 0 <= self.alpha < 1:
            raise ValueError("alpha must be in [0, 1)")
        if self.mean_speed <= 0:
            raise ValueError("mean_speed must be positive")
        if len(self.blocks) != 2 or min(self.blocks) < 1:
            raise ValueError("blocks must be (across, down), both >= 1")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.settle_time < 0:
            raise ValueError("settle_time must be >= 0")

    def to_dict(self) -> dict:
        """JSON-ready representation (tuples become lists)."""
        return {
            key: (list(value) if isinstance(value, tuple) else value)
            for key, value in asdict(self).items()
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChurnConfig":
        kwargs = dict(data)
        for key in ("area", "blocks"):
            if key in kwargs and kwargs[key] is not None:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)

#: Protocols reproducible from the paper plus this package's extensions.
PROTOCOL_NAMES = tuple(PROTOCOLS)

#: The full-matrix campaign: the paper's wired protocols side by side with
#: the MANET trio, for Figures 3-7 on static meshes and mobility scenarios.
MATRIX_PROTOCOLS = (
    "rip",
    "dbf",
    "bgp",
    "bgp3",
    "spf",
    "dual",
    "aodv",
    "dsr",
    "olsr",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs for one figure-style experiment sweep."""

    # Topology.
    rows: int = 7
    cols: int = 7
    degrees: tuple[int, ...] = (3, 4, 5, 6, 7, 8)

    # Protocols under study (names from PROTOCOL_NAMES).
    protocols: tuple[str, ...] = ("rip", "dbf", "bgp", "bgp3")

    # Statistical replication.
    runs: int = 10
    seed: int = 1

    # Timeline (seconds).
    traffic_start: float = 5.0
    fail_time: float = 10.0
    post_fail_window: float = 70.0

    # Traffic.  20 pkt/s of 64-byte packets keeps the flow (and any transient
    # forwarding loop, whose per-link hop rate is ~rate*TTL/2) well under the
    # 1 Mbps link capacity, so convergence-period losses are attributable to
    # routing (NO_ROUTE, TTL_EXPIRED) rather than congestion — the loss causes
    # the paper studies.  See DESIGN.md "Parameter reconstruction".
    rate_pps: float = 20.0
    packet_bytes: int = 64
    ttl: int = 127

    # Substrate.
    queue_capacity: int = DEFAULT_QUEUE_CAPACITY
    detection_delay: float = DEFAULT_DETECTION_DELAY
    # Strict-priority queueing for routing messages (control-plane protection
    # ablation; the paper's simulator shares one FIFO, our default too).
    prioritize_control: bool = False

    # Distance-vector infinity for RIP/DBF (see module docstring).
    dv_infinity: int = 32

    # True = cold start with a convergence warm-up instead of analytic warm start.
    cold_start: bool = False
    cold_warmup: float = 390.0

    # Record per-packet hop traces (needed for loop analysis; costs memory).
    record_paths: bool = False

    # Attach the online invariant monitors (repro.validation) to every run;
    # violations land on ScenarioResult.violations.  Costs per-packet record
    # allocation plus an end-of-run SPF oracle diff.
    validate: bool = False

    # Mobility-driven churn (None = the paper's static mesh + one failure).
    # When set, ``run_churn_scenario`` derives the topology from node
    # positions and radio range and the failure schedule from movement.
    churn: Optional[ChurnConfig] = None

    # Sharded execution (repro.dist): number of simulation shards (1 = the
    # classic single-process run) and the topology partition strategy.
    # Sharding never changes results — the differential determinism
    # suite pins sharded runs byte-identical to single-process.
    shards: int = 1
    partition: str = "mincut"

    def __post_init__(self) -> None:
        if self.rows < 3 or self.cols < 3:
            raise ValueError("mesh must be at least 3x3")
        if not self.degrees:
            raise ValueError("no degrees to sweep")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if not 0 < self.traffic_start < self.fail_time:
            raise ValueError("need 0 < traffic_start < fail_time")
        if self.post_fail_window <= 0:
            raise ValueError("post_fail_window must be positive")
        for name in self.protocols:
            protocol_spec(name)
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.partition not in PARTITION_STRATEGIES:
            raise ValueError(
                f"unknown partition strategy {self.partition!r} "
                f"(expected one of {PARTITION_STRATEGIES})"
            )

    @property
    def end_time(self) -> float:
        return self.fail_time + self.post_fail_window

    @classmethod
    def paper(cls) -> "ExperimentConfig":
        """Full paper-scale configuration."""
        return cls()

    @classmethod
    def quick(cls) -> "ExperimentConfig":
        """Scaled-down profile for tests/benchmarks (same protocol timers)."""
        return cls(
            degrees=(3, 4, 5, 6),
            runs=3,
            post_fail_window=50.0,
        )

    def with_(self, **overrides) -> "ExperimentConfig":
        """Functional update helper."""
        return replace(self, **overrides)

    # -- durable-sweep support (manifests, resume) ---------------------------

    @property
    def seeds(self) -> tuple[int, ...]:
        """The per-point seed list (``seed``, ``seed+1``, ...)."""
        return tuple(self.seed + i for i in range(self.runs))

    def grid(self) -> list[tuple[str, int, int]]:
        """The full (protocol, degree, seed) task grid, in canonical order.

        This order is the contract for deterministic sweep assembly: results
        are always reported in grid order no matter which worker finished
        first, so interrupted-and-resumed sweeps aggregate identically to
        uninterrupted ones.
        """
        return [
            (protocol, degree, seed)
            for protocol in self.protocols
            for degree in self.degrees
            for seed in self.seeds
        ]

    def to_dict(self) -> dict:
        """JSON-ready representation (tuples become lists)."""
        out = {}
        for field_info in dataclass_fields(self):
            value = getattr(self, field_info.name)
            if isinstance(value, ChurnConfig):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            out[field_info.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Inverse of :meth:`to_dict` (e.g. from a sweep manifest)."""
        kwargs = dict(data)
        unknown = sorted(set(kwargs) - {f.name for f in dataclass_fields(cls)})
        if unknown:
            raise ValueError(f"unknown ExperimentConfig keys: {unknown}")
        for key in ("degrees", "protocols"):
            if key in kwargs and kwargs[key] is not None:
                kwargs[key] = tuple(kwargs[key])
        if kwargs.get("churn") is not None:
            kwargs["churn"] = ChurnConfig.from_dict(kwargs["churn"])
        return cls(**kwargs)

    def fingerprint(self) -> str:
        """Stable content hash; guards a checkpoint against config drift.

        A sweep store records this at creation and refuses to resume under a
        different configuration — mixed-config shards would silently corrupt
        the aggregate.
        """
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
