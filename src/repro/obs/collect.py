"""Run-level observation: wiring metrics + profiler into one simulation.

:class:`RunObservation` is the bundle a caller hands to
:func:`repro.experiments.scenario.run_scenario` (and the ``repro profile``
CLI builds): a :class:`~repro.obs.registry.MetricsRegistry` and a
:class:`~repro.obs.profiler.PhaseProfiler`.  An unobserved run passes
``obs=None`` and builds neither.

Cost contract: an observation subscribes to nothing, so an observed run
publishes exactly the records an unobserved one does — the overhead-guard
test in ``tests/obs`` pins this with a publish-counting bus, mirroring
``tests/sim/test_tracing_guards.py``.  Everything it reports (engine
:class:`EventStats`, the bus's :class:`TraceCounters`, the protocols'
route counts, queue/channel integers) is harvested once in ``finalize``
from counters the run keeps anyway.
"""

from __future__ import annotations

from .profiler import PhaseProfiler
from .registry import MetricsRegistry

__all__ = ["RunObservation", "QUEUE_DEPTH_BUCKETS"]

#: Bucket upper edges for the per-channel queue-depth HWM distribution
#: (queues are DEFAULT_QUEUE_CAPACITY=20 packets by default, so the last
#: finite bucket sits at capacity and the overflow bucket catches larger
#: configured capacities).
QUEUE_DEPTH_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0)


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
        self._finalized = False

    # -------------------------------------------------------------- lifecycle

    def finalize(self, sim=None, network=None, bus=None) -> None:
        """Harvest the always-on counters.

        Safe to call repeatedly; only the first call harvests.  Each source
        is optional so partial setups (tests, other drivers) can finalize
        whatever they have.
        """
        if self._finalized:
            return
        self._finalized = True
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
            self._harvest_protocol(network)
        self.profiler.finish()

    def _harvest_protocol(self, network) -> None:
        """``proto.<name>.*``: the run's control-plane traffic, for the one
        protocol every router runs; nothing when no message was sent."""
        counters = network.bus.counters
        protocols = [n.protocol for n in network.iter_nodes() if n.protocol is not None]
        if not counters.messages or not protocols:
            return
        reg, prefix = self.registry, f"proto.{protocols[0].name}"
        reg.counter(f"{prefix}.messages").inc(counters.messages)
        reg.counter(f"{prefix}.routes").inc(sum(p.routes_sent for p in protocols))
        reg.counter(f"{prefix}.withdrawals").inc(counters.withdrawals)
        reg.counter(f"{prefix}.bytes").inc(counters.message_bytes)

    # -------------------------------------------------------------- reporting

    def to_dict(self) -> dict:
        """JSON-ready view: profiler span tree plus metric snapshot."""
        return {
            "phases": self.profiler.to_dict(),
            "metrics": self.registry.snapshot(),
        }
