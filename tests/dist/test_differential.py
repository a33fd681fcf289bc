"""Byte-identity determinism proofs: sharded == single-process.

The keystone of repro.dist: over the golden scenarios, a run partitioned
across 2, 3, or 4 shards must reproduce the single-process run exactly:
every persisted field except the three that differ by mode (violations,
monitor skips, dump path), and all four canonical trace streams.
A hypothesis sweep extends the proof to random mesh layouts and random
partition choices.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.dist.merge import (
    diff_results,
    run_sharded_with_traces,
    run_single_with_traces,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import run_scenario
from repro.validation.monitors import Monitor, MonitorSuite

# Mirrors tests/experiments/test_golden_metrics.py: small enough to run the
# full matrix, big enough that the failure forces a real reconvergence.
GOLDEN_CONFIG = ExperimentConfig.quick().with_(
    rows=5, cols=5, runs=1, post_fail_window=30.0, record_paths=True
)

#: (protocol, seed): the two golden seed-7 points plus the rip seed-11 point
#: whose slow recovery exercises a qualitatively different trajectory.
CASES = (("dbf", 7), ("bgp3", 7), ("rip", 11))

_single_cache: dict = {}


def _single(protocol: str, seed: int):
    key = (protocol, seed)
    if key not in _single_cache:
        _single_cache[key] = run_single_with_traces(protocol, 4, seed, GOLDEN_CONFIG)
    return _single_cache[key]


@pytest.mark.parametrize("shards", [2, 3, 4])
@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-s{c[1]}")
def test_sharded_run_is_byte_identical(case, shards):
    protocol, seed = case
    single, single_traces = _single(protocol, seed)
    config = GOLDEN_CONFIG.with_(shards=shards)
    sharded, sharded_traces = run_sharded_with_traces(protocol, 4, seed, config)
    problems = diff_results(single, single_traces, sharded, sharded_traces)
    assert not problems, "\n".join(problems)


def test_sharded_violations_match_single_process():
    # Same scenario, monitors on: both runs must agree that the invariants
    # hold (the sharded side re-derives conservation + FIB loops offline).
    config = GOLDEN_CONFIG.with_(shards=3)
    sharded, _ = run_sharded_with_traces("dbf", 4, 7, config, validate=True)
    single = run_scenario("dbf", 4, 7, GOLDEN_CONFIG.with_(validate=True))
    assert sharded.violations == ()
    assert single.violations == ()
    # The monitors that need a live simulator are skipped loudly, not lost.
    assert "not evaluated under sharded execution" in (
        sharded.monitor_skips or {}
    ).get("convergence-sentinel", "")


def test_a_monitor_added_to_the_suite_is_skipped_by_name(monkeypatch):
    """The sharded skip list is the default suite minus what the merge
    replays, so a new monitor is named rather than silently missing."""

    class ExtraMonitor(Monitor):
        name = "extra-invariant"

    defaults = MonitorSuite.default_monitors
    monkeypatch.setattr(
        MonitorSuite,
        "default_monitors",
        staticmethod(lambda: [*defaults(), ExtraMonitor()]),
    )
    config = GOLDEN_CONFIG.with_(post_fail_window=5.0, shards=2)
    sharded, _ = run_sharded_with_traces("dbf", 4, 7, config, validate=True)
    skips = sharded.monitor_skips
    assert skips["extra-invariant"] == "not evaluated under sharded execution"
    # dbf makes no loop-freedom promise: only conservation is judged.
    suite = {monitor.name for monitor in MonitorSuite.default_monitors()}
    assert set(skips) == suite - {"packet-conservation"}


@pytest.mark.parametrize("field", ["events", "reordering"])
def test_diff_names_every_persisted_field(field):
    single, traces = _single("dbf", 7)
    if field == "events":
        first = single.events[0]
        perturbed = (replace(first, wave_end=first.wave_end + 1.0), *single.events[1:])
    else:
        late = single.reordering.late_packets + 1
        perturbed = replace(single.reordering, late_packets=late)
    problems = diff_results(single, traces, replace(single, **{field: perturbed}), traces)
    assert [problem.split(":")[0] for problem in problems] == [field]


def test_process_exchange_matches_local_exchange():
    config = GOLDEN_CONFIG.with_(post_fail_window=10.0, shards=3)
    local, local_traces = run_sharded_with_traces("bgp3", 4, 7, config)
    forked, forked_traces = run_sharded_with_traces(
        "bgp3", 4, 7, config, exchange="process"
    )
    problems = diff_results(local, local_traces, forked, forked_traces)
    assert not problems, "\n".join(problems)


def test_run_scenario_delegates_on_shards():
    config = GOLDEN_CONFIG.with_(post_fail_window=10.0)
    via_scenario = run_scenario("dbf", 4, 7, config.with_(shards=2))
    direct = run_scenario("dbf", 4, 7, config)
    assert via_scenario.sent == direct.sent
    assert via_scenario.delivered == direct.delivered
    assert via_scenario.routing_convergence == direct.routing_convergence


def test_run_scenario_rejects_unsupported_extras_when_sharded():
    from repro.obs.flight import FlightRecorder

    with pytest.raises(ValueError, match="recorder"):
        run_scenario(
            "dbf", 4, 7, GOLDEN_CONFIG.with_(shards=2), recorder=FlightRecorder()
        )


@settings(max_examples=6, deadline=None)
@given(
    rows=st.integers(3, 4),
    cols=st.integers(3, 5),
    seed=st.integers(1, 40),
    shards=st.integers(2, 3),
    strategy=st.sampled_from(["mincut", "stripe"]),
)
def test_random_layouts_and_cuts_stay_byte_identical(
    rows, cols, seed, shards, strategy
):
    config = ExperimentConfig.quick().with_(
        rows=rows,
        cols=cols,
        runs=1,
        post_fail_window=8.0,
        record_paths=True,
    )
    single, single_traces = run_single_with_traces("dbf", 4, seed, config)
    sharded, sharded_traces = run_sharded_with_traces(
        "dbf", 4, seed, config.with_(shards=shards, partition=strategy)
    )
    problems = diff_results(single, single_traces, sharded, sharded_traces)
    assert not problems, "\n".join(problems)
