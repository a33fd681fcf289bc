"""Sharded-run telemetry: the acceptance scenario for the run-event log.

A 3-shard run with ``live_log`` must produce a log that (1) passes
``check_log``, (2) replays into exactly the per-shard event totals the
coordinator aggregated, (3) renders a Perfetto document with one lane per
shard, and (4) — the transparency invariant — leaves the merged metrics
byte-identical to the run with no telemetry at all.  A stalled shard must
surface its id and last heartbeat both in the error and in the log.
"""

from __future__ import annotations

import pytest

from repro.dist.merge import shard_perfetto_trace
from repro.dist.runner import ShardScenarioSpec, ShardStallError, run_sharded
from repro.dist.worker import HANG_ENV
from repro.experiments.persistence import diff_runs
from repro.experiments.scenario import run_scenario
from repro.obs.flight import FlightRecorder
from repro.obs.live import SHARD_LANE_PID, check_log, read_log, summarize_log

from tests.golden.runs import GOLDEN_CONFIG

CONFIG = GOLDEN_CONFIG.with_(shards=3)
SPEC = ShardScenarioSpec.mesh("bgp3", 4, 7, CONFIG)


@pytest.fixture(scope="module")
def logged_run(tmp_path_factory):
    """One 3-shard bgp3 run with the log and registries on, shared below."""
    path = tmp_path_factory.mktemp("live") / "shard.log"
    registries = {}
    result = run_sharded(SPEC, live_log=path, registries=registries)
    return result, read_log(path), registries


class TestShardedLiveLog:
    def test_log_passes_check_log(self, logged_run):
        _, records, _ = logged_run
        assert check_log(records) == []
        assert records[0]["run"] == "shard"
        assert records[0]["meta"]["shards"] == 3
        assert records[-1] == {"kind": "end", "ok": True}

    def test_log_replays_coordinator_event_totals(self, logged_run):
        # The acceptance criterion: shard-end records == the registry the
        # coordinator aggregated beat by beat == the final heartbeats.
        _, records, registries = logged_run
        summary = summarize_log(records)
        assert sorted(summary.shard_totals) == [0, 1, 2]
        for shard, totals in summary.shard_totals.items():
            registry = registries[shard]
            assert totals["events"] == registry.get("shard.events").value
            assert totals["relays_out"] == registry.get("shard.relays_out").value
            assert totals["relays_in"] == registry.get("shard.relays_in").value
            view = summary.shards[shard]
            assert view.events == totals["events"]
        assert all(r.self_check() == [] for r in registries.values())

    def test_relays_conserve_across_shards(self, logged_run):
        # Every relay leaving one shard is injected into another.
        _, records, _ = logged_run
        summary = summarize_log(records)
        out = sum(t["relays_out"] for t in summary.shard_totals.values())
        into = sum(t["relays_in"] for t in summary.shard_totals.values())
        assert out == into
        assert out == summary.n_relays

    def test_heartbeats_are_throttled(self, logged_run):
        # Thousands of barrier windows coalesce into ~interval-spaced
        # records: the log stays small while covering every window.
        _, records, _ = logged_run
        summary = summarize_log(records)
        n_heartbeats = sum(1 for r in records if r["kind"] == "heartbeat")
        assert summary.n_windows > 1000
        assert n_heartbeats < 200

    def test_final_clock_reaches_end_of_run(self, logged_run):
        _, records, _ = logged_run
        summary = summarize_log(records)
        for view in summary.shards.values():
            assert view.clock == pytest.approx(CONFIG.end_time)


class TestTelemetryTransparency:
    def test_metrics_identical_with_and_without_log(self, tmp_path):
        quiet = run_scenario("bgp3", 4, 7, CONFIG)
        logged = run_sharded(SPEC, live_log=tmp_path / "x.log", registries={})
        assert diff_runs(quiet, logged) == []


class TestShardPerfetto:
    def test_one_lane_per_shard(self, tmp_path):
        path = tmp_path / "shard.log"
        recorder = FlightRecorder()
        run_scenario("bgp3", 4, 7, CONFIG, recorder=recorder, live_log=path)
        doc = shard_perfetto_trace(recorder, read_log(path))
        events = doc["traceEvents"]
        lane_names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert {"shard 0", "shard 1", "shard 2", "coordinator"} <= lane_names
        # Shard lanes carry window spans; node lanes carry packet slices —
        # both on the one simulated-time axis.
        shard_spans = [
            e for e in events
            if e["ph"] == "X" and e.get("pid", 0) >= SHARD_LANE_PID
        ]
        node_events = [
            e for e in events
            if e["ph"] not in ("M",) and e.get("pid", 0) < SHARD_LANE_PID
        ]
        assert shard_spans and node_events
        end_us = CONFIG.end_time * 1e6
        assert max(e["ts"] for e in shard_spans) <= end_us
        assert doc["displayTimeUnit"] == "ms"


class TestStallForensics:
    def test_hung_shard_surfaces_identity_and_last_heartbeat(
        self, monkeypatch, tmp_path
    ):
        # Hang shard 1 at t>=4s: by then every shard has heartbeats, so the
        # error must carry the hung shard's last known state.
        monkeypatch.setenv(HANG_ENV, "1:4")
        config = CONFIG.with_(rows=4, cols=4, post_fail_window=8.0, shards=2)
        path = tmp_path / "stall.log"
        with pytest.raises(ShardStallError) as excinfo:
            run_sharded(
                ShardScenarioSpec.mesh("dbf", 4, 7, config),
                exchange="process",
                barrier_timeout=2.0,
                live_log=path,
            )
        err = excinfo.value
        assert err.shard_index == 1
        beat = err.heartbeats[1]
        assert beat is not None and beat.clock > 0
        assert "last heartbeat: clock=" in str(err)
        assert err.pipes_open  # captured before teardown
        assert all(w is not None for w in err.last_windows.values())

        records = read_log(path)
        assert check_log(records) == []
        stall = next(r for r in records if r["kind"] == "stall")
        assert stall["shard"] == 1
        assert stall["heartbeat"]["clock"] == beat.clock
        assert records[-1]["kind"] == "end" and records[-1]["ok"] is False
