"""Online invariant monitors, differential convergence oracle, and fuzzer.

Three layers of simulator validation, all seed-deterministic:

* :mod:`repro.validation.monitors` — invariant monitors that subscribe to
  the trace bus during a run (packet conservation, TTL monotonicity, queue
  bounds, forwarding-loop freedom, post-convergence reachability) plus an
  end-of-run RIB diff against an offline SPF oracle;
* :mod:`repro.validation.oracle` — a differential oracle running the same
  scenario under several protocols and cross-checking converged path costs
  and per-protocol behavioral envelopes;
* :mod:`repro.validation.fuzz` — a deterministic scenario fuzzer with
  greedy failure shrinking.

Entry points: ``ExperimentConfig(validate=True)`` attaches the monitors to
every run, and ``python -m repro validate`` drives the fuzzer + oracle.
See ``docs/validation.md`` for the catalog and semantics.
"""

from .monitors import (
    ConvergenceSentinel,
    FibLoopMonitor,
    Monitor,
    MonitorSuite,
    NoRouteAfterConvergenceMonitor,
    PacketConservationMonitor,
    QueueOccupancyMonitor,
    RibConsistencyMonitor,
    RunContext,
    TtlMonitor,
    Violation,
)
from .oracle import DifferentialReport, ProtocolOutcome, run_differential
from .fuzz import FuzzCase, FuzzOutcome, FuzzReport, fuzz, generate_case, run_case, shrink

__all__ = [
    "ConvergenceSentinel",
    "DifferentialReport",
    "FibLoopMonitor",
    "FuzzCase",
    "FuzzOutcome",
    "FuzzReport",
    "Monitor",
    "MonitorSuite",
    "NoRouteAfterConvergenceMonitor",
    "PacketConservationMonitor",
    "ProtocolOutcome",
    "QueueOccupancyMonitor",
    "RibConsistencyMonitor",
    "RunContext",
    "TtlMonitor",
    "Violation",
    "fuzz",
    "generate_case",
    "run_case",
    "run_differential",
    "shrink",
]
