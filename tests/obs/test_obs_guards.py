"""Overhead-guard and determinism contracts for the observability layer.

Mirrors ``tests/sim/test_tracing_guards.py``: publishes on a counting bus
are a proxy for record allocations.  An observation subscribes to nothing:
it harvests the counters a run always keeps, so an observed run allocates
no record an unobserved one does not.

The golden test pins the other half of the contract: profiling a run reads
wall clocks and counters only, so every simulated result is bit-identical
with observation on and off, and the run log it writes holds that one
observation as its one ``profile`` record.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.persistence import diff_runs
from repro.experiments.scenario import run_scenario
from repro.net.network import Network
from repro.net.packet import Packet
from repro.obs import RunObservation, read_log
from repro.sim.engine import Simulator
from repro.sim.tracing import TraceBus
from repro.topology import generators

from tests.golden.runs import GOLDEN_CONFIG


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
    def test_enabled_observation_leaves_the_packet_path_alone(self):
        # An observed run publishes on the bus's guards alone: none is up.
        bus = CountingBus()
        obs = RunObservation()
        _push_traffic(bus)
        obs.finalize(bus=bus)
        assert bus.publish_count == 0

    def test_observed_run_publishes_what_an_unobserved_one_does(self, monkeypatch):
        buses = []

        class KeptBus(CountingBus):
            def __init__(self) -> None:
                super().__init__()
                buses.append(self)

        monkeypatch.setattr("repro.experiments.scenario.TraceBus", KeptBus)
        run_scenario("dbf", 4, 7, GOLDEN_CONFIG)
        run_scenario("dbf", 4, 7, GOLDEN_CONFIG, obs=RunObservation())
        plain, observed = buses
        assert observed.publish_count == plain.publish_count > 0

    def test_finalize_still_harvests_the_always_on_counters(self):
        bus = CountingBus()
        obs = RunObservation()
        _push_traffic(bus, n_packets=7)
        obs.finalize(bus=bus)
        metrics = obs.registry.snapshot()
        assert metrics["trace.sends"]["value"] == 7
        assert metrics["trace.delivers"]["value"] == 7
        assert bus.publish_count == 0  # harvested, never observed per event


@pytest.mark.parametrize("protocol", ["dbf", "bgp3"])
def test_golden_seed7_results_identical_with_and_without_observation(
    protocol, tmp_path
):
    plain = run_scenario(protocol, 4, 7, GOLDEN_CONFIG)
    obs = RunObservation(trace_memory=False)
    log = tmp_path / "observed.log"
    observed = run_scenario(protocol, 4, 7, GOLDEN_CONFIG, obs=obs, live_log=log)
    # Bit-identical series and reports, not just matching aggregates.
    assert diff_runs(plain, observed) == []
    # One account: the log holds the observation once, as it was measured.
    profiles = [r for r in read_log(log) if r["kind"] == "profile"]
    assert len(profiles) == 1
    assert {k: v for k, v in profiles[0].items() if k != "kind"} == json.loads(
        json.dumps(obs.to_dict())
    )
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
