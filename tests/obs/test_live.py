"""Unit tests for the streaming run-event log (repro.obs.live).

Follows the house style of the registry's mutation tests
(``tests/obs/test_registry.py``): every structural rule ``check_log``
enforces gets one deliberate corruption asserting the rule fires, with a
clean control beside it proving the checker is quiet on healthy data.
"""

from __future__ import annotations

import copy
import io
import json

import pytest

from repro.cli import main
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import run_scenario
from repro.obs import RunObservation
from repro.obs.live import (
    COORDINATOR_PID,
    LOG_KIND,
    LOG_SCHEMA_VERSION,
    SHARD_LANE_PID,
    RunEventLog,
    check_log,
    format_live,
    open_live_log,
    read_log,
    shard_lane_events,
    summarize_log,
    watch,
    write_log,
)


def make_log(path, run="shard", meta=None):
    log = RunEventLog(path, run=run, meta=meta or {"protocol": "dbf"})
    log.heartbeat(shard=0, clock=1.0, events=10, barrier=1.0,
                  relays_out=2, relays_in=1, busy_s=0.1, wall_s=0.5)
    log.heartbeat(shard=1, clock=1.0, events=7, barrier=1.0,
                  relays_out=1, relays_in=2, busy_s=0.2, wall_s=0.5)
    log.window(index=0, e_min=0.5, barrier=1.0, n_windows=12, n_relays=3,
               wall_s=0.4)
    log.heartbeat(shard=0, clock=2.0, events=25, barrier=2.0,
                  relays_out=4, relays_in=3, busy_s=0.2, wall_s=1.0)
    log.window(index=1, e_min=1.5, barrier=2.0, n_windows=9, n_relays=4,
               wall_s=0.3)
    log.shard_end(shard=0, events=25, relays_out=4, relays_in=3)
    log.shard_end(shard=1, events=7, relays_out=1, relays_in=2)
    log.end(ok=True)
    log.close()
    return path


class TestRunEventLog:
    def test_header_is_first_record(self, tmp_path):
        path = make_log(tmp_path / "run.log")
        records = read_log(path)
        assert records[0]["kind"] == "header"
        assert records[0]["schema_version"] == LOG_SCHEMA_VERSION
        assert records[0]["log_kind"] == LOG_KIND
        assert records[0]["run"] == "shard"
        assert records[0]["meta"] == {"protocol": "dbf"}

    def test_unknown_run_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown run kind"):
            RunEventLog(tmp_path / "run.log", run="banana")

    def test_append_after_close_raises(self, tmp_path):
        log = RunEventLog(tmp_path / "run.log", run="scenario")
        log.close()
        assert log.closed
        with pytest.raises(ValueError, match="closed"):
            log.append("end", ok=True)

    def test_context_manager_closes(self, tmp_path):
        with RunEventLog(tmp_path / "run.log", run="sweep") as log:
            log.end(ok=True)
        assert log.closed

    def test_sweep_phase_validated(self, tmp_path):
        with RunEventLog(tmp_path / "run.log", run="sweep") as log:
            log.append("sweep", phase="middle")
        problems = check_log(read_log(tmp_path / "run.log"))
        assert any("'phase' must be begin|end" in p for p in problems)

    def test_every_line_is_flushed(self, tmp_path):
        log = RunEventLog(tmp_path / "run.log", run="scenario")
        log.heartbeat(shard=0, clock=0.5, events=3)
        # Without closing: a concurrent reader sees both complete lines.
        records = read_log(tmp_path / "run.log")
        assert [r["kind"] for r in records] == ["header", "heartbeat"]
        log.close()


class TestOpenLiveLog:
    def test_none_passthrough(self):
        assert open_live_log(None, run="shard") == (None, False)

    def test_path_opens_owned_log(self, tmp_path):
        log, owns = open_live_log(tmp_path / "run.log", run="churn",
                                  meta={"seed": 1})
        assert owns is True
        assert read_log(tmp_path / "run.log")[0]["run"] == "churn"
        log.close()

    def test_existing_log_reused_unowned(self, tmp_path):
        outer = RunEventLog(tmp_path / "run.log", run="sweep")
        log, owns = open_live_log(outer, run="scenario")
        assert log is outer
        assert owns is False
        outer.close()


class TestRoundTrip:
    def test_read_write_byte_identical(self, tmp_path):
        path = make_log(tmp_path / "run.log")
        original = path.read_bytes()
        copy = tmp_path / "copy.log"
        write_log(read_log(path), copy)
        assert copy.read_bytes() == original

    def test_torn_tail_tolerated(self, tmp_path):
        path = make_log(tmp_path / "run.log")
        complete = len(read_log(path))
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"kind": "heartbeat", "shard": 0, "clo')  # mid-append
        records = read_log(path)
        assert len(records) == complete  # the torn line is ignored
        assert check_log(records) == []

    def test_reading_stops_at_first_bad_line(self, tmp_path):
        path = tmp_path / "run.log"
        with open(path, "w", encoding="utf-8") as f:
            f.write('{"kind": "header"}\n')
            f.write("not json at all\n")
            f.write('{"kind": "end", "ok": true}\n')
        assert [r["kind"] for r in read_log(path)] == ["header"]


class TestCheckLog:
    def test_clean_log_is_quiet(self, tmp_path):
        records = read_log(make_log(tmp_path / "run.log"))
        assert check_log(records) == []

    def test_empty_log(self):
        assert check_log([]) == ["log is empty (no header record)"]

    def test_missing_header(self, tmp_path):
        records = read_log(make_log(tmp_path / "run.log"))[1:]
        assert any("first record must be the header" in p
                   for p in check_log(records))

    def test_wrong_schema_version(self, tmp_path):
        records = read_log(make_log(tmp_path / "run.log"))
        records[0]["schema_version"] = 99
        assert any("schema_version" in p for p in check_log(records))

    def test_duplicate_header(self, tmp_path):
        records = read_log(make_log(tmp_path / "run.log"))
        records.append(dict(records[0]))
        assert any("duplicate header" in p for p in check_log(records))

    def test_unknown_kind(self, tmp_path):
        records = read_log(make_log(tmp_path / "run.log"))
        records.append({"kind": "mystery"})
        assert any("unknown kind" in p for p in check_log(records))

    def test_heartbeat_clock_must_not_go_backwards(self, tmp_path):
        records = read_log(make_log(tmp_path / "run.log"))
        records.append({"kind": "heartbeat", "shard": 0, "clock": 0.5,
                        "events": 30})
        assert any("goes backwards" in p for p in check_log(records))

    def test_heartbeat_events_must_not_go_backwards(self, tmp_path):
        records = read_log(make_log(tmp_path / "run.log"))
        records.append({"kind": "heartbeat", "shard": 0, "clock": 3.0,
                        "events": 1})
        assert any("event count" in p and "backwards" in p
                   for p in check_log(records))

    def test_heartbeat_monotonicity_is_per_shard(self, tmp_path):
        # Shard 1's clock may trail shard 0's — only same-shard regressions
        # are violations.
        records = read_log(make_log(tmp_path / "run.log"))
        records.append({"kind": "heartbeat", "shard": 1, "clock": 1.5,
                        "events": 9})
        assert check_log(records) == []

    def test_window_index_must_increase(self, tmp_path):
        records = read_log(make_log(tmp_path / "run.log"))
        records.append({"kind": "window", "index": 1, "e_min": None,
                        "barrier": 3.0, "n_windows": 1, "n_relays": 0,
                        "wall_s": 0.1})
        assert any("does not increase" in p for p in check_log(records))

    def test_bool_is_not_a_count(self, tmp_path):
        records = read_log(make_log(tmp_path / "run.log"))
        records.append({"kind": "heartbeat", "shard": True, "clock": 3.0,
                        "events": 30})
        assert any("'shard' must be" in p for p in check_log(records))

    def test_seed_done_bounded_by_total(self):
        records = [
            {"kind": "header", "schema_version": LOG_SCHEMA_VERSION,
             "log_kind": LOG_KIND, "run": "sweep", "meta": {}},
            {"kind": "seed", "protocol": "dbf", "degree": 4, "seed": 1,
             "ok": True, "elapsed_s": 0.1, "done": 5, "total": 4},
        ]
        assert any("exceeds total" in p for p in check_log(records))

    def test_stall_requires_reason(self, tmp_path):
        records = read_log(make_log(tmp_path / "run.log"))
        records.append({"kind": "stall", "shard": 0, "window": 2.0,
                        "reason": ""})
        assert any("'reason' must be" in p for p in check_log(records))


@pytest.fixture(scope="module")
def profile_log(tmp_path_factory) -> list:
    """The records of one observed run: header, phase beats, profile, end."""
    path = tmp_path_factory.mktemp("profile") / "run.log"
    cfg = ExperimentConfig.quick().with_(runs=1, post_fail_window=20.0)
    run_scenario("dbf", 4, 1, cfg, obs=RunObservation(), live_log=path)
    return read_log(path)


def _with_profile(records: list, mutate) -> list:
    """A deep copy of ``records`` with ``mutate`` applied to its profile."""
    records = copy.deepcopy(records)
    mutate(next(r for r in records if r["kind"] == "profile"))
    return records


class TestProfileRecord:
    """An observed run's phase tree and metric snapshot, as one log record."""

    def test_valid_profile_has_no_problems(self, profile_log):
        assert [r["kind"] for r in profile_log].count("profile") == 1
        assert check_log(profile_log) == []
        summary = summarize_log(profile_log)
        assert summary.problems == []
        assert summary.profile["metrics"]["engine.events"]["value"] > 0

    def test_json_round_trip_stays_valid(self, profile_log):
        records = [json.loads(json.dumps(r)) for r in profile_log]
        assert records == profile_log
        assert check_log(records) == []

    def test_histogram_bucket_corruption_is_reported(self, profile_log):
        def corrupt(profile):
            hist = profile["metrics"]["net.link_queue_hwm"]
            assert hist["kind"] == "histogram"
            hist["counts"][0] += 1  # sum(counts) no longer matches count

        problems = check_log(_with_profile(profile_log, corrupt))
        assert any("bucket counts sum" in p for p in problems), problems

    def test_non_monotonic_bounds_are_reported(self, profile_log):
        def corrupt(profile):
            bounds = profile["metrics"]["net.link_queue_hwm"]["bounds"]
            bounds[1] = bounds[0]

        problems = check_log(_with_profile(profile_log, corrupt))
        assert any("strictly increasing" in p for p in problems), problems

    def test_gauge_hwm_below_value_is_reported(self, profile_log):
        def corrupt(profile):
            gauge = profile["metrics"]["engine.sim_s"]
            gauge["hwm"] = gauge["value"] - 1.0

        problems = check_log(_with_profile(profile_log, corrupt))
        assert any("hwm" in p for p in problems), problems

    def test_negative_counter_is_reported(self, profile_log):
        def corrupt(profile):
            profile["metrics"]["engine.events"]["value"] = -5

        problems = check_log(_with_profile(profile_log, corrupt))
        assert any("counter" in p and "-5" in p for p in problems), problems

    def test_span_without_name_is_reported(self, profile_log):
        def corrupt(profile):
            del profile["phases"]["children"][0]["name"]

        problems = check_log(_with_profile(profile_log, corrupt))
        assert any("'name'" in p for p in problems), problems

    @pytest.mark.parametrize(
        "mutate, needle",
        [
            (lambda p: p["metrics"]["engine.events"].update(value=True), "'value'"),
            (lambda p: p["phases"]["children"][2].update(events=True), "'events'"),
        ],
        ids=["counter-value", "span-events"],
    )
    def test_json_true_is_not_an_int(self, profile_log, mutate, needle):
        """``isinstance(True, int)`` holds in Python; in a log it is damage."""
        problems = check_log(_with_profile(profile_log, mutate))
        assert any(needle in p and "got True" in p for p in problems), problems

    def test_invalid_profile_is_a_log_problem_in_the_frame(self, profile_log):
        def corrupt(profile):
            profile["metrics"]["engine.events"]["value"] = -5

        summary = summarize_log(_with_profile(profile_log, corrupt))
        assert summary.profile is None
        text = format_live(summary)
        assert "LOG PROBLEM" in text and "engine.events" in text
        assert "phases (wall time):" not in text

    def test_frame_names_phases_and_metrics(self, profile_log):
        text = format_live(summarize_log(profile_log))
        for expected in (
            "phases (wall time):",
            "convergence",
            "metrics:",
            "engine.events",
            "proto.dbf.messages",
        ):
            assert expected in text


class TestSummarize:
    def test_shard_views_fold_cumulatively(self, tmp_path):
        summary = summarize_log(read_log(make_log(tmp_path / "run.log")))
        assert summary.run == "shard"
        assert summary.ended and summary.end_ok is True
        assert sorted(summary.shards) == [0, 1]
        v0 = summary.shards[0]
        assert v0.clock == 2.0 and v0.events == 25
        assert v0.relays_out == 4 and v0.relays_in == 3
        # Two beats with wall_s -> a rate over the last interval.
        assert v0.rate == pytest.approx((25 - 10) / (1.0 - 0.5))
        # busy 0.2 of wall 1.0 -> 80% barrier wait.
        assert v0.barrier_wait_fraction == pytest.approx(0.8)
        assert summary.n_windows == 21 and summary.n_relays == 7
        assert summary.last_barrier == 2.0
        assert summary.shard_totals[0]["events"] == 25

    def test_one_process_beats_have_no_wait_fraction(self):
        summary = summarize_log([
            {"kind": "header", "schema_version": LOG_SCHEMA_VERSION,
             "log_kind": LOG_KIND, "run": "scenario", "meta": {}},
            {"kind": "heartbeat", "shard": 0, "clock": 10.0, "events": 100,
             "wall_s": 0.2, "phase": "steady"},
        ])
        view = summary.shards[0]
        assert view.barrier_wait_fraction is None
        assert view.phase == "steady"
        assert "--" in format_live(summary)

    def test_sweep_view(self):
        summary = summarize_log([
            {"kind": "header", "schema_version": LOG_SCHEMA_VERSION,
             "log_kind": LOG_KIND, "run": "sweep", "meta": {}},
            {"kind": "sweep", "phase": "begin", "total_tasks": 4,
             "resumed_tasks": 1, "workers": 2},
            {"kind": "seed", "protocol": "dbf", "degree": 4, "seed": 1,
             "ok": True, "elapsed_s": 0.5, "done": 2, "total": 4},
            {"kind": "seed", "protocol": "rip", "degree": 4, "seed": 2,
             "ok": False, "elapsed_s": None, "done": 3, "total": 4},
            {"kind": "sweep", "phase": "end", "wall_s": 1.25},
        ])
        s = summary.sweep
        assert (s.total_tasks, s.done, s.failed, s.resumed_tasks, s.workers) == (
            4, 3, 1, 1, 2
        )
        assert "FAILED" in s.last_label
        text = format_live(summary)
        assert "3/4 seeds done" in text
        assert "1 failed, 1 resumed" in text
        assert "wall: 1.25s" in text

    def test_sweep_utilization_and_slowest_seed(self):
        records = [
            {"kind": "header", "schema_version": LOG_SCHEMA_VERSION,
             "log_kind": LOG_KIND, "run": "sweep", "meta": {}},
            {"kind": "sweep", "phase": "begin", "total_tasks": 2,
             "resumed_tasks": 0, "workers": 2},
            {"kind": "seed", "protocol": "dbf", "degree": 4, "seed": 1,
             "ok": True, "elapsed_s": 0.5, "done": 1, "total": 2},
            {"kind": "seed", "protocol": "dbf", "degree": 4, "seed": 2,
             "ok": True, "elapsed_s": 0.75, "done": 2, "total": 2},
        ]
        text = format_live(summarize_log(records))
        assert "utilization" not in text  # no wall time before ``sweep end``
        assert "slowest seed: dbf degree=4 seed=2 (0.75s)" in text
        records.append({"kind": "sweep", "phase": "end", "wall_s": 1.25})
        # 1.25 busy seconds of a 2 x 1.25 worker-second budget.
        assert "wall: 1.25s, utilization 50%" in format_live(summarize_log(records))
        # Like the fold, the frame skips what it cannot read.
        records[1]["workers"] = "two"
        records[2]["elapsed_s"] = "slow"
        text = format_live(summarize_log(records))
        assert "wall: 1.25s\n" in text
        assert "slowest seed: dbf degree=4 seed=2 (0.75s)" in text

    def test_stall_and_violations_rendered(self, tmp_path):
        records = read_log(make_log(tmp_path / "run.log"))
        records.append({"kind": "violation", "text": "fib-loop at t=3"})
        records.append({"kind": "stall", "shard": 1, "window": 4.0,
                        "reason": "no response within 2s",
                        "heartbeat": None})
        text = format_live(summarize_log(records))
        assert "STALL: shard 1 at window t=4.0" in text
        assert "VIOLATION: fib-loop at t=3" in text


class TestWatch:
    def test_once_renders_one_frame(self, tmp_path):
        path = make_log(tmp_path / "run.log")
        out = io.StringIO()
        assert watch(path, once=True, stream=out) == 0
        text = out.getvalue()
        assert "shard run [ENDED]" in text
        assert "windows: 21" in text

    def test_follow_exits_on_end_record(self, tmp_path):
        # The log already carries its end record, so the follow loop's very
        # first frame terminates it — no timing dependence.
        path = make_log(tmp_path / "run.log")
        out = io.StringIO()
        assert watch(path, once=False, interval=0.01, stream=out) == 0

    def test_not_a_log_returns_nonzero(self, tmp_path):
        path = tmp_path / "not-a-log.txt"
        path.write_text('{"kind": "end", "ok": true}\n')
        out = io.StringIO()
        assert watch(path, once=True, stream=out) == 1
        assert "not a run-event log" in out.getvalue()

    def test_missing_file_returns_nonzero(self, tmp_path):
        out = io.StringIO()
        assert watch(tmp_path / "absent.log", once=True, stream=out) == 1


class TestShardLanes:
    def test_lane_per_shard_plus_coordinator(self, tmp_path):
        events = shard_lane_events(read_log(make_log(tmp_path / "run.log")))
        names = {e["pid"]: e["args"]["name"]
                 for e in events if e["ph"] == "M"}
        assert names[COORDINATOR_PID] == "coordinator"
        assert names[SHARD_LANE_PID + 0] == "shard 0"
        assert names[SHARD_LANE_PID + 1] == "shard 1"

    def test_window_spans_carry_event_deltas(self, tmp_path):
        events = shard_lane_events(read_log(make_log(tmp_path / "run.log")))
        spans = [e for e in events
                 if e["ph"] == "X" and e["pid"] == SHARD_LANE_PID]
        assert [s["args"]["events"] for s in spans] == [10, 15]
        # Second span covers clock 1.0s -> 2.0s in microseconds.
        assert spans[1]["ts"] == 1_000_000.0
        assert spans[1]["dur"] == 1_000_000.0
        assert spans[1]["args"]["barrier_wait_fraction"] == pytest.approx(0.8)

    def test_relay_injections_become_instants(self, tmp_path):
        events = shard_lane_events(read_log(make_log(tmp_path / "run.log")))
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == 1  # shard 0: relays_in 1 -> 3
        assert instants[0]["args"]["relays"] == 2

    def test_coordinator_lane_spans_barriers(self, tmp_path):
        events = shard_lane_events(read_log(make_log(tmp_path / "run.log")))
        coord = [e for e in events
                 if e["ph"] == "X" and e["pid"] == COORDINATOR_PID]
        assert [c["name"] for c in coord] == ["12 window(s)", "9 window(s)"]

    def test_json_serializable(self, tmp_path):
        events = shard_lane_events(read_log(make_log(tmp_path / "run.log")))
        json.dumps(events)  # must not raise


class TestProfileCli:
    def test_profile_smoke_writes_a_valid_log(self, tmp_path, capsys):
        out = tmp_path / "profile.log"
        assert main(["profile", "--smoke", "--out", str(out)]) == 0
        records = read_log(out)
        assert check_log(records) == []
        (profile,) = [r for r in records if r["kind"] == "profile"]
        # Per-phase wall times ...
        names = [c["name"] for c in profile["phases"]["children"]]
        assert "convergence" in names and "steady" in names
        # ... per-protocol message/byte counts ...
        assert profile["metrics"]["proto.dbf.messages"]["value"] > 0
        assert profile["metrics"]["proto.dbf.bytes"]["value"] > 0
        # ... and per-seed sweep telemetry.
        seeds = [r for r in records if r["kind"] == "seed"]
        assert len(seeds) == 2
        assert all(r["ok"] and r["elapsed_s"] > 0 for r in seeds)
        text = capsys.readouterr().out
        assert text.startswith("profile: protocol=dbf degree=4 seed=1 sent=")
        assert "phases (wall time):" in text

    def test_profile_without_sweep_has_no_sweep_records(self, tmp_path):
        out = tmp_path / "profile.log"
        rc = main(["profile", "--protocol", "bgp3", "--seed", "2", "--out", str(out)])
        assert rc == 0
        records = read_log(out)
        assert check_log(records) == []
        assert records[0]["meta"]["protocol"] == "bgp3"
        assert not [r for r in records if r["kind"] in ("seed", "sweep")]
        assert [r["kind"] for r in records].count("profile") == 1
