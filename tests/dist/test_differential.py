"""Byte-identity determinism proofs: sharded == single-process.

The keystone of repro.dist: over the golden scenarios, a run partitioned
across 2, 3, or 4 shards must reproduce the single-process run exactly:
every persisted field except the three that differ by mode (violations,
monitor skips, dump path), the MANET report, and all four canonical trace
streams, warm-start installs included.
A hypothesis sweep extends the proof to random mesh layouts and random
partition choices.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.dist import ShardScenarioSpec, run_sharded
from repro.dist.merge import (
    MODE_FIELDS,
    canonical_trace_streams,
    run_single_with_traces,
)
from repro.dist.runner import run_scenario_sharded
from repro.experiments.config import ExperimentConfig
from repro.experiments.persistence import diff_runs
from repro.experiments.scenario import run_scenario
from repro.net.dynamics import SingleLinkFailureDriver
from repro.net.packet import reset_packet_ids
from repro.obs.flight import FlightRecorder
from repro.topology.generators import scale_free
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
    config = GOLDEN_CONFIG.with_(shards=shards)
    sharded = run_scenario_sharded(protocol, 4, seed, config, collect_traces=True)
    problems = diff_runs(_single(protocol, seed), sharded, ignore=MODE_FIELDS)
    assert not problems, "\n".join(problems)


def test_sharded_violations_match_single_process():
    # Same scenario, monitors on: both runs must agree that the invariants
    # hold (the sharded side re-derives conservation + FIB loops offline).
    config = GOLDEN_CONFIG.with_(shards=3)
    sharded = run_scenario_sharded("dbf", 4, 7, config, validate=True)
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
    sharded = run_scenario_sharded("dbf", 4, 7, config, validate=True)
    skips = sharded.monitor_skips
    assert skips["extra-invariant"] == "not evaluated under sharded execution"
    # dbf makes no loop-freedom promise: only conservation is judged.
    suite = {monitor.name for monitor in MonitorSuite.default_monitors()}
    assert set(skips) == suite - {"packet-conservation"}


@pytest.mark.parametrize("field", ["events", "reordering"])
def test_diff_names_every_persisted_field(field):
    single = _single("dbf", 7)
    if field == "events":
        first = single.events[0]
        perturbed = (replace(first, wave_end=first.wave_end + 1.0), *single.events[1:])
    else:
        late = single.reordering.late_packets + 1
        perturbed = replace(single.reordering, late_packets=late)
    problems = diff_runs(single, replace(single, **{field: perturbed}))
    assert [problem.split(":")[0] for problem in problems] == [field]


def test_diff_names_the_manet_report():
    """``manet`` is not persisted, so only the identity check covers the
    merge's summed control-plane counters."""
    single = _single("dbf", 7)
    louder = replace(single.manet, control_packets=single.manet.control_packets + 1)
    assert diff_runs(single, replace(single, manet=louder)) == ["manet"]


def test_sharded_traces_include_warm_start_installs():
    """A recorder attached before warm start sees its installs; the shards
    ship the ones they published, so the streams match a recorder's."""
    reset_packet_ids()
    recorder = FlightRecorder()
    run_scenario("dbf", 4, 7, GOLDEN_CONFIG, recorder=recorder)
    recorded = canonical_trace_streams(*recorder.streams.values())
    sharded = run_scenario_sharded(
        "dbf", 4, 7, GOLDEN_CONFIG.with_(shards=3), collect_traces=True
    )
    for kind, records in recorded.items():
        assert sharded.traces[kind] == records, kind


@pytest.mark.parametrize("seed", [1, 7])
def test_sharded_warm_start_installs_keep_their_cause(seed):
    """SPF installs its warm-start routes inside its recompute scope, so a
    recorder sees them caused by ``('spf_recompute', None)``, not by None."""
    sharded = run_scenario_sharded(
        "spf", 4, seed, GOLDEN_CONFIG.with_(shards=2), collect_traces=True
    )
    problems = diff_runs(_single("spf", seed), sharded, ignore=MODE_FIELDS)
    assert problems == [], "\n".join(problems)


def _scale_free_spec(shards: int) -> ShardScenarioSpec:
    """200-node scale-free bgp3 failure whose merge miscounts ``messages``."""
    topology = scale_free(200, m=2, seed=376103)
    sender, receiver, failed = 199, 198, (22, 90)
    config = ExperimentConfig.quick().with_(
        runs=1, post_fail_window=5.0, partition="mincut", shards=shards
    )
    expected = topology.shortest_path(sender, receiver, exclude_link=failed)
    return ShardScenarioSpec(
        protocol="bgp3",
        degree=2,
        seed=376103,
        config=config,
        topology=topology,
        sender=sender,
        receiver=receiver,
        pre_path=tuple(topology.shortest_path(sender, receiver)),
        expected_final=tuple(expected) if expected else None,
        events=tuple(
            SingleLinkFailureDriver(failed, config.fail_time).generate(config.end_time)
        ),
        warm_dests=(sender, receiver),
    )


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a contended same-instant slot at a cut link is ordered by "
    "(tx_start, sender) across shards but by heap seq in one process",
)
def test_scale_free_counter_example_is_byte_identical():
    with warnings.catch_warnings():
        # A 1-shard partition is trivial; it is the reference on purpose.
        warnings.simplefilter("ignore", UserWarning)
        one = run_sharded(_scale_free_spec(1), collect_traces=True)
    two = run_sharded(_scale_free_spec(2), collect_traces=True)
    assert diff_runs(one, two) == []


def test_process_exchange_matches_local_exchange():
    config = GOLDEN_CONFIG.with_(post_fail_window=10.0, shards=3)
    local = run_scenario_sharded("bgp3", 4, 7, config, collect_traces=True)
    forked = run_scenario_sharded(
        "bgp3", 4, 7, config, exchange="process", collect_traces=True
    )
    problems = diff_runs(local, forked)
    assert not problems, "\n".join(problems)


def test_run_scenario_delegates_on_shards():
    config = GOLDEN_CONFIG.with_(post_fail_window=10.0)
    via_scenario = run_scenario("dbf", 4, 7, config.with_(shards=2))
    direct = run_scenario("dbf", 4, 7, config)
    assert diff_runs(direct, via_scenario, ignore=MODE_FIELDS) == []


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
    single = run_single_with_traces("dbf", 4, seed, config)
    sharded = run_scenario_sharded(
        "dbf", 4, seed, config.with_(shards=shards, partition=strategy),
        collect_traces=True,
    )
    problems = diff_runs(single, sharded, ignore=MODE_FIELDS)
    assert not problems, "\n".join(problems)
