"""Mutation tests: deliberately broken protocol logic must be caught.

The validation subsystem's job is to notice when the simulator is wrong.
These tests prove it can, by monkeypatching a classic implementation bug
into the distance-vector advertisement path and asserting that at least
one monitor (or the differential oracle) flags the run.

The injected bug inverts the split-horizon check in
``DistanceVectorProtocol._advertised_metric``: routes are poisoned toward
every neighbor *except* the current next hop (the exact opposite of
poison reverse).  Two observable consequences:

* neighbors adopt each other's routes through each other — transient
  two-node forwarding loops that RIP, by design, must never form
  (Observation 2), caught online by the FIB-loop monitor;
* good news stops propagating after the failure, so the network either
  never quiesces or settles on wrong metrics, caught by the
  RIB-consistency diff against the SPF oracle.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import run_scenario
from repro.routing.dv_common import DistanceVectorProtocol
from repro.validation.monitors import MonitorSuite


def _inverted_split_horizon(self, dest, neighbor):
    route = self.table[dest]
    if route.next_hop != neighbor:  # inverted: poisons everyone else
        return self.config.infinity
    return min(route.metric, self.config.infinity)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_broken_split_horizon_is_caught(monkeypatch, seed):
    monkeypatch.setattr(
        DistanceVectorProtocol, "_advertised_metric", _inverted_split_horizon
    )
    suite = MonitorSuite()
    result = run_scenario("rip", 3, seed, ExperimentConfig.quick(), monitors=suite)
    assert result.violations, (
        "inverted split horizon went unnoticed by every monitor"
    )
    assert any("[fib-loop]" in v for v in result.violations), result.violations[:3]


def test_clean_split_horizon_stays_clean():
    # Control: the same scenario without the mutation raises nothing, so the
    # detection above is attributable to the injected bug.
    suite = MonitorSuite()
    result = run_scenario("rip", 3, 1, ExperimentConfig.quick(), monitors=suite)
    assert result.violations == ()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sharded_merge_catches_the_same_loops(monkeypatch, seed):
    """The merge replays the route stream into the live FIB-loop monitor:
    two local shards flag exactly the loops one process flags."""
    monkeypatch.setattr(
        DistanceVectorProtocol, "_advertised_metric", _inverted_split_horizon
    )
    config = ExperimentConfig.quick()
    single = run_scenario("rip", 3, seed, config.with_(validate=True))
    sharded = run_scenario("rip", 3, seed, config.with_(shards=2, validate=True))

    def loops(result):
        return [v for v in result.violations if v.startswith("[fib-loop]")]

    assert loops(single)
    assert loops(sharded) == loops(single)
