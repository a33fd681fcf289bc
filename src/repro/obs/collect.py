"""Run-level observation: wiring metrics + profiler into one simulation.

:class:`RunObservation` is the bundle a caller hands to
:func:`repro.experiments.scenario.run_scenario` (and the ``repro profile``
CLI builds): a :class:`~repro.obs.registry.MetricsRegistry`, a
:class:`~repro.obs.profiler.PhaseProfiler`, and the trace-bus collectors
that feed the registry during the run.  An unobserved run passes
``obs=None`` and builds none of them.

Cost contract: ``attach`` subscribes to control-plane ``message`` records
only, so the bus's packet guard (``wants_packet``) stays off and the packet
hot path still allocates no records — the overhead-guard test in
``tests/obs`` pins this with a publish-counting bus, mirroring
``tests/sim/test_tracing_guards.py``.

Everything cheap-and-always-on (engine :class:`EventStats`, the bus's
:class:`TraceCounters`, queue/channel integers) is harvested once in
``finalize`` rather than observed per event.
"""

from __future__ import annotations

from typing import Optional

from ..sim.tracing import MessageRecord, TraceBus
from .profiler import PhaseProfiler
from .registry import MetricsRegistry

__all__ = ["ProtocolTraffic", "RunObservation", "QUEUE_DEPTH_BUCKETS"]

#: Bucket upper edges for the per-channel queue-depth HWM distribution
#: (queues are DEFAULT_QUEUE_CAPACITY=20 packets by default, so the last
#: finite bucket sits at capacity and the overflow bucket catches larger
#: configured capacities).
QUEUE_DEPTH_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0)


class ProtocolTraffic:
    """Per-protocol control-plane traffic counters, fed by the trace bus.

    Subscribes to ``"message"`` records and maintains, per protocol label,
    message / route-entry / withdrawal / byte counters in the registry
    (``proto.<name>.messages`` etc.).  Must be ``close()``d when the run is
    over so long-lived processes don't accumulate dead bus subscribers.
    """

    def __init__(self, bus: TraceBus, registry: MetricsRegistry) -> None:
        self._bus: Optional[TraceBus] = bus
        self._registry = registry
        self._per_protocol: dict[str, tuple] = {}
        bus.subscribe("message", self._on_message)

    def _on_message(self, record: MessageRecord) -> None:
        counters = self._per_protocol.get(record.protocol)
        if counters is None:
            reg = self._registry
            prefix = f"proto.{record.protocol}"
            counters = (
                reg.counter(f"{prefix}.messages"),
                reg.counter(f"{prefix}.routes"),
                reg.counter(f"{prefix}.withdrawals"),
                reg.counter(f"{prefix}.bytes"),
            )
            self._per_protocol[record.protocol] = counters
        messages, routes, withdrawals, nbytes = counters
        messages.inc()
        routes.inc(record.n_routes)
        if record.is_withdrawal:
            withdrawals.inc()
        nbytes.inc(record.size_bytes)

    def close(self) -> None:
        """Unsubscribe from the bus (idempotent)."""
        if self._bus is not None:
            self._bus.unsubscribe("message", self._on_message)
            self._bus = None

    def __enter__(self) -> "ProtocolTraffic":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RunObservation:
    """Metrics + profiling for one scenario run.

    Usage::

        obs = RunObservation(trace_memory=False)
        result = run_scenario("dbf", 4, 7, config, obs=obs)
        observation = obs.to_dict()     # {"phases": ..., "metrics": ...}

    With a ``live_log`` beside it, the run also writes ``to_dict()`` as the
    log's ``profile`` record.
    """

    def __init__(self, trace_memory: bool = False) -> None:
        self.registry = MetricsRegistry()
        self.profiler = PhaseProfiler(trace_memory=trace_memory)
        self._traffic: Optional[ProtocolTraffic] = None
        self._finalized = False

    # -------------------------------------------------------------- lifecycle

    def attach(self, bus: TraceBus) -> None:
        """Wire the bus-driven collectors (once)."""
        if self._traffic is not None:
            return
        self._traffic = ProtocolTraffic(bus, self.registry)

    def finalize(self, sim=None, network=None, bus=None) -> None:
        """Harvest the always-on counters and release bus subscriptions.

        Safe to call repeatedly; only the first call harvests.  Each source
        is optional so partial setups (tests, other drivers) can finalize
        whatever they have.
        """
        if self._finalized:
            return
        self._finalized = True
        if self._traffic is not None:
            self._traffic.close()
            self._traffic = None
        reg = self.registry
        if sim is not None:
            stats = sim.stats()
            reg.counter("engine.events").inc(stats.events_processed)
            reg.counter("engine.cancelled_skipped").inc(stats.cancelled_skipped)
            reg.gauge("engine.queue_depth_hwm").set(stats.queue_depth_hwm)
            reg.gauge("engine.run_wall_s").set(stats.wall_time)
            reg.gauge("engine.sim_s").set(stats.sim_time)
            reg.gauge("engine.events_per_sec").set(stats.events_per_sec)
        if bus is not None:
            for name, value in bus.counters.as_dict().items():
                reg.counter(f"trace.{name}").inc(value)
        if network is not None:
            depth_hist = reg.histogram("net.link_queue_hwm", QUEUE_DEPTH_BUCKETS)
            hwm = 0
            transmitted = 0
            for link in network.iter_links():
                link_hwm = link.queue_depth_hwm()
                depth_hist.observe(link_hwm)
                if link_hwm > hwm:
                    hwm = link_hwm
                transmitted += link.packets_transmitted
            reg.gauge("net.queue_depth_hwm").set(hwm)
            reg.counter("net.packets_transmitted").inc(transmitted)
        self.profiler.finish()

    # -------------------------------------------------------------- reporting

    def to_dict(self) -> dict:
        """JSON-ready view: profiler span tree plus metric snapshot."""
        return {
            "phases": self.profiler.to_dict(),
            "metrics": self.registry.snapshot(),
        }
