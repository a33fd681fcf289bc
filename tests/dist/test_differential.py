"""Byte-identity determinism proofs: sharded == single-process.

The keystone of repro.dist: over the golden scenarios, a run partitioned
across 2, 3, or 4 shards must reproduce the single-process run exactly:
every persisted field except the three that differ by mode (violations,
monitor skips, dump path), the MANET report, and all four trace streams
of a flight recorder, warm-start installs included.
A hypothesis sweep extends the proof to random mesh layouts and random
partition choices.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.dist import ShardScenarioSpec, run_sharded
from repro.dist.merge import MODE_FIELDS, canonical_trace_streams, diff_recordings
from repro.experiments.config import ExperimentConfig
from repro.experiments.persistence import diff_runs
from repro.experiments.scenario import run_scenario
from repro.net.dynamics import SingleLinkFailureDriver
from repro.net.packet import reset_packet_ids
from repro.obs.flight import FlightRecorder
from repro.topology.generators import scale_free
from repro.validation.monitors import Monitor, MonitorSuite

from tests.golden.runs import GOLDEN_CONFIG, GOLDEN_POINTS

_single_cache: dict = {}


def _recorded(protocol: str, seed: int, config):
    """``run_scenario`` at ``config.shards`` with a recorder, packet ids
    counted from zero: the result and the recorder."""
    reset_packet_ids()
    recorder = FlightRecorder()
    return run_scenario(protocol, 4, seed, config, recorder=recorder), recorder


def _single(protocol: str, seed: int):
    key = (protocol, seed)
    if key not in _single_cache:
        _single_cache[key] = _recorded(protocol, seed, GOLDEN_CONFIG)
    return _single_cache[key]


def _differences(a, b) -> list[str]:
    """How two recorded runs differ: the fields but the mode fields, then
    the trace streams."""
    (a_result, a_recorder), (b_result, b_recorder) = a, b
    return diff_runs(a_result, b_result, ignore=MODE_FIELDS) + diff_recordings(
        a_recorder, b_recorder
    )


@pytest.mark.parametrize("shards", [2, 3, 4])
@pytest.mark.parametrize("case", GOLDEN_POINTS, ids=lambda c: f"{c[0]}-s{c[1]}")
def test_sharded_run_is_byte_identical(case, shards):
    protocol, seed = case
    sharded = _recorded(protocol, seed, GOLDEN_CONFIG.with_(shards=shards))
    problems = _differences(_single(protocol, seed), sharded)
    assert not problems, "\n".join(problems)


def test_sharded_violations_match_single_process():
    # Same scenario, monitors on: both runs must agree that the invariants
    # hold (the sharded side re-derives conservation + FIB loops offline).
    config = GOLDEN_CONFIG.with_(shards=3, validate=True)
    sharded = run_scenario("dbf", 4, 7, config)
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
    config = GOLDEN_CONFIG.with_(post_fail_window=5.0, shards=2, validate=True)
    sharded = run_scenario("dbf", 4, 7, config)
    skips = sharded.monitor_skips
    assert skips["extra-invariant"] == "not evaluated under sharded execution"
    # dbf makes no loop-freedom promise: only conservation is judged.
    suite = {monitor.name for monitor in MonitorSuite.default_monitors()}
    assert set(skips) == suite - {"packet-conservation"}


@pytest.mark.parametrize("field", ["events", "reordering"])
def test_diff_names_every_persisted_field(field):
    single, _ = _single("dbf", 7)
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
    single, _ = _single("dbf", 7)
    louder = replace(single.manet, control_packets=single.manet.control_packets + 1)
    assert diff_runs(single, replace(single, manet=louder)) == ["manet"]


def _assert_recorder_holds_single_process_streams(protocol, shards):
    _, single = _single(protocol, 7)
    recorded = canonical_trace_streams(single.streams)
    _, sharded = _recorded(protocol, 7, GOLDEN_CONFIG.with_(shards=shards))
    # The warm-start installs, at t=0, lead the route stream.
    assert recorded["route"][0].time == 0.0
    for kind, records in recorded.items():
        assert tuple(sharded.streams[kind]) == records, kind


def test_sharded_traces_include_warm_start_installs():
    """A recorder attached before warm start sees its installs; the shards
    ship the ones they published, so the streams match a recorder's."""
    _assert_recorder_holds_single_process_streams("dbf", 3)


@pytest.mark.parametrize(
    "protocol,shards", [("dbf", 2), ("bgp3", 3), ("spf", 2)], ids=str
)
def test_recorder_of_a_sharded_run_holds_the_single_process_streams(
    protocol, shards
):
    """The recorder given to ``run_scenario`` is filled by the merge, in
    canonical order, with every record one process records."""
    _assert_recorder_holds_single_process_streams(protocol, shards)


@pytest.mark.parametrize("seed", [1, 7])
def test_sharded_warm_start_installs_keep_their_cause(seed):
    """SPF installs its warm-start routes inside its recompute scope, so a
    recorder sees them caused by ``('spf_recompute', None)``, not by None."""
    sharded = _recorded("spf", seed, GOLDEN_CONFIG.with_(shards=2))
    problems = _differences(_single("spf", seed), sharded)
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
    def recorded(shards, **kwargs):
        recorder = FlightRecorder()
        result = run_sharded(_scale_free_spec(shards), recorder=recorder, **kwargs)
        return result, recorder

    with warnings.catch_warnings():
        # A 1-shard partition is trivial; it is the reference on purpose.
        warnings.simplefilter("ignore", UserWarning)
        one, one_recorder = recorded(1)
    two, two_recorder = recorded(2)
    assert diff_runs(one, two) + diff_recordings(one_recorder, two_recorder) == []


def test_process_exchange_matches_local_exchange():
    config = GOLDEN_CONFIG.with_(post_fail_window=10.0, shards=3)
    local, local_recorder = _recorded("bgp3", 7, config)
    forked_recorder = FlightRecorder()
    forked = run_sharded(
        ShardScenarioSpec.mesh("bgp3", 4, 7, config),
        exchange="process",
        recorder=forked_recorder,
    )
    problems = diff_runs(local, forked) + diff_recordings(
        local_recorder, forked_recorder
    )
    assert not problems, "\n".join(problems)


def test_run_scenario_delegates_on_shards():
    config = GOLDEN_CONFIG.with_(post_fail_window=10.0)
    via_scenario = run_scenario("dbf", 4, 7, config.with_(shards=2))
    direct = run_scenario("dbf", 4, 7, config)
    assert diff_runs(direct, via_scenario, ignore=MODE_FIELDS) == []


def test_run_scenario_rejects_unsupported_extras_when_sharded(tmp_path):
    with pytest.raises(ValueError, match="dump_dir"):
        run_scenario(
            "dbf", 4, 7, GOLDEN_CONFIG.with_(shards=2), dump_dir=str(tmp_path)
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
    single = _recorded("dbf", seed, config)
    sharded = _recorded("dbf", seed, config.with_(shards=shards, partition=strategy))
    problems = _differences(single, sharded)
    assert not problems, "\n".join(problems)
