"""Overhead-guard and determinism contracts for the observability layer.

Mirrors ``tests/sim/test_tracing_guards.py``: publishes on a counting bus
are a proxy for record allocations, so the packet hot path must stay at
zero publishes when observation is disabled — and even an *enabled*
observation only subscribes to control-plane messages, so pure data traffic
still allocates nothing.

The golden test pins the other half of the contract: profiling a run reads
wall clocks and counters only, so every simulated result is bit-identical
with observation on and off.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.persistence import diff_runs
from repro.experiments.scenario import run_scenario
from repro.net.network import Network
from repro.net.packet import Packet
from repro.obs import RunObservation
from repro.sim.engine import Simulator
from repro.sim.tracing import TraceBus
from repro.topology import generators


class CountingBus(TraceBus):
    """TraceBus that counts every publish call (i.e. record construction)."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.publish_count = 0

    def publish(self, record: object) -> None:
        self.publish_count += 1
        super().publish(record)


def _push_traffic(bus: TraceBus, n_packets: int = 20) -> None:
    """Line network, FIBs set by hand, CBR-ish burst end to end."""
    sim = Simulator()
    net = Network(sim, generators.line(4), bus)
    for node in net.iter_nodes():
        if node.id < 3:
            node.set_next_hop(3, node.id + 1)
    for i in range(n_packets):
        sim.schedule_at(
            i * 0.01, lambda: net.node(0).originate(Packet(src=0, dst=3))
        )
    sim.run()
    assert net.node(3).delivered == n_packets


class TestZeroOverheadWhenDisabled:
    def test_disabled_observation_never_publishes(self):
        bus = CountingBus(
            keep_packets=False, keep_routes=False, keep_messages=False
        )
        obs = RunObservation.disabled()
        obs.attach(bus)
        _push_traffic(bus)
        assert bus.publish_count == 0
        obs.finalize(bus=bus)
        assert bus.publish_count == 0

    def test_disabled_observation_leaves_wants_guards_off(self):
        bus = TraceBus(keep_packets=False, keep_routes=False, keep_messages=False)
        obs = RunObservation.disabled()
        obs.attach(bus)
        assert not bus.wants_packet
        assert not bus.wants_message
        assert not bus.wants_route

    def test_disabled_observation_collects_no_metrics(self):
        bus = CountingBus(
            keep_packets=False, keep_routes=False, keep_messages=False
        )
        obs = RunObservation.disabled()
        obs.attach(bus)
        _push_traffic(bus)
        obs.finalize(bus=bus)
        assert obs.to_dict() == {"phases": None, "metrics": {}}

    def test_enabled_observation_leaves_the_packet_path_alone(self):
        # The enabled collectors subscribe to "message" records only; data
        # packets must still allocate nothing.
        bus = CountingBus(
            keep_packets=False, keep_routes=False, keep_messages=False
        )
        obs = RunObservation()
        obs.attach(bus)
        assert bus.wants_message  # the collector is live ...
        assert not bus.wants_packet  # ... but the data path stays guarded
        _push_traffic(bus)
        assert bus.publish_count == 0

    def test_finalize_releases_the_message_subscription(self):
        bus = TraceBus(keep_packets=False, keep_routes=False, keep_messages=False)
        obs = RunObservation()
        obs.attach(bus)
        assert bus.wants_message
        obs.finalize(bus=bus)
        assert not bus.wants_message

    def test_finalize_still_harvests_the_always_on_counters(self):
        bus = CountingBus(
            keep_packets=False, keep_routes=False, keep_messages=False
        )
        obs = RunObservation()
        obs.attach(bus)
        _push_traffic(bus, n_packets=7)
        obs.finalize(bus=bus)
        metrics = obs.registry.snapshot()
        assert metrics["trace.sends"]["value"] == 7
        assert metrics["trace.delivers"]["value"] == 7
        assert bus.publish_count == 0  # harvested, never observed per event


GOLDEN_CONFIG = ExperimentConfig.quick().with_(
    rows=5, cols=5, runs=1, post_fail_window=30.0, record_paths=True
)


@pytest.mark.parametrize("protocol", ["dbf", "bgp3"])
def test_golden_seed7_results_identical_with_and_without_observation(protocol):
    plain = run_scenario(protocol, 4, 7, GOLDEN_CONFIG)
    obs = RunObservation(trace_memory=False)
    observed = run_scenario(protocol, 4, 7, GOLDEN_CONFIG, obs=obs)
    # Bit-identical series and reports, not just matching aggregates.
    assert diff_runs(plain, observed) == []
    # And the observation actually measured the run it rode on.
    metrics = obs.registry.snapshot()
    assert metrics["trace.sends"]["value"] == plain.sent
    assert metrics[f"proto.{protocol}.messages"]["value"] > 0
    phases = obs.profiler.to_dict()
    assert [c["name"] for c in phases["children"]] == [
        "setup", "warmup", "steady", "failure", "convergence", "drain",
    ]
    run_events = sum(
        c["events"] for c in phases["children"] if "events" in c
    )
    assert run_events == metrics["engine.events"]["value"]
