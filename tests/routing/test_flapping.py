"""Link-flapping coverage: repeated fail/restore cycles under every family.

The paper's experiment perturbs the mesh exactly once.  These tests drive
the same harness through N fail/restore cycles of the on-path link (via a
``driver_factory`` returning a :class:`~repro.net.dynamics.ScriptedDriver`)
and check that the core invariants survive sustained churn:

* packet conservation holds (every packet delivered or dropped once);
* loop-free protocols stay loop-free through every wave;
* at quiescence — the link ends restored, so the final graph is the
  original mesh — every protocol's route metrics agree with the SPF
  differential oracle.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import run_scenario
from repro.net.dynamics import LinkEvent, ScriptedDriver
from repro.routing.catalog import protocol_spec
from repro.validation.monitors import MonitorSuite, RibConsistencyMonitor

PROTOCOLS = ("rip", "dbf", "bgp3", "spf", "dual")
CYCLES = 3

CONFIG = ExperimentConfig.quick().with_(
    rows=5, cols=5, runs=1, post_fail_window=60.0
)


def flapping_driver(plan):
    """N fail/restore cycles of the planned link, ending restored."""
    a, b = plan.failed
    events = []
    for cycle in range(CYCLES):
        events.append(LinkEvent("fail", a, b, plan.fail_at + 6.0 * cycle))
        events.append(LinkEvent("restore", a, b, plan.fail_at + 6.0 * cycle + 3.0))
    return ScriptedDriver(tuple(events))


def run_flapping(protocol, seed=7):
    suite = MonitorSuite()
    result = run_scenario(
        protocol, 4, seed, CONFIG, monitors=suite, driver_factory=flapping_driver
    )
    return result, suite


class TestFlapping:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_all_cycles_executed_and_link_ends_up(self, protocol):
        result, suite = run_flapping(protocol)
        assert len(result.events) == 2 * CYCLES
        assert [e.kind for e in result.events] == ["fail", "restore"] * CYCLES
        ctx = suite.context
        assert ctx is not None
        a, b = result.events[0].link
        assert ctx.network.link(a, b).up

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_packet_conservation_through_churn(self, protocol):
        result, _ = run_flapping(protocol)
        conservation = [
            v for v in result.violations if v.startswith("[packet-conservation")
        ]
        assert conservation == []
        assert result.delivered + result.total_drops <= result.sent

    @pytest.mark.parametrize(
        "protocol", sorted(p for p in PROTOCOLS if protocol_spec(p).loop_free)
    )
    def test_loop_free_protocols_stay_loop_free(self, protocol):
        result, suite = run_flapping(protocol)
        loops = [v for v in result.violations if v.startswith("[fib-loop")]
        assert loops == []
        assert "fib-loop" not in suite.skips

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_oracle_agreement_at_quiescence(self, protocol):
        """After the last restore the graph is the original mesh again, so
        every protocol must converge back to the all-links-up SPF costs."""
        result, suite = run_flapping(protocol)
        rib = next(
            m for m in suite.monitors if isinstance(m, RibConsistencyMonitor)
        )
        assert rib.skipped is None, f"did not quiesce: {rib.skipped}"
        actual = suite.end_metrics
        assert len(actual) == len(suite.context.network.nodes)
        mismatches = [
            (node, dest, row[dest], rib.oracle[node].get(dest))
            for node, row in sorted(actual.items())
            for dest in sorted(row)
            if row[dest] != rib.oracle[node].get(dest)
        ]
        assert mismatches == []

    def test_per_event_waves_attributed(self):
        result, _ = run_flapping("spf")
        assert len(result.events) == 2 * CYCLES
        # The first failure must cause routing activity; every wave window
        # that saw activity carries a consistent [start, end] interval.
        assert result.events[0].wave_start is not None
        for event in result.events:
            if event.wave_start is not None:
                assert event.wave_end is not None
                assert event.wave_start >= event.detect_time
                assert event.wave_end >= event.wave_start
