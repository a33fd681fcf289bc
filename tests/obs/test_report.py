"""Profile report schema: build, self-check, human summary, CLI end-to-end."""

from __future__ import annotations

import copy
import json

import pytest

from repro.cli import main
from repro.obs import (
    REPORT_KIND,
    SCHEMA_VERSION,
    RunObservation,
    SweepTelemetry,
    build_report,
    check_report,
    format_report,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import run_scenario


@pytest.fixture(scope="module")
def report() -> dict:
    cfg = ExperimentConfig.quick().with_(runs=1, post_fail_window=20.0)
    obs = RunObservation()
    result = run_scenario("dbf", 4, 1, cfg, obs=obs)
    telemetry = SweepTelemetry()
    for record in (
        {"kind": "sweep", "phase": "begin", "total_tasks": 1, "resumed_tasks": 0,
         "workers": 1},
        {"kind": "seed", "protocol": "dbf", "degree": 4, "seed": 1, "ok": True,
         "elapsed_s": 0.25, "attempts": 1, "timed_out": False, "done": 1,
         "total": 1},
        {"kind": "sweep", "phase": "end", "wall_s": 0.5},
    ):
        telemetry.fold(record)
    return build_report(
        scenario={"protocol": result.protocol, "degree": 4, "seed": 1},
        observation=obs.to_dict(),
        sweep=telemetry.to_dict(),
        meta={"profile": "quick"},
    )


class TestCheckReport:
    def test_valid_report_has_no_problems(self, report):
        assert check_report(report) == []

    def test_json_round_trip_stays_valid(self, report):
        assert check_report(json.loads(json.dumps(report))) == []

    def test_wrong_schema_version_is_reported(self, report):
        bad = copy.deepcopy(report)
        bad["schema_version"] = SCHEMA_VERSION + 1
        assert any("schema_version" in p for p in check_report(bad))

    def test_wrong_kind_is_reported(self, report):
        bad = copy.deepcopy(report)
        bad["kind"] = "something-else"
        assert any("kind" in p for p in check_report(bad))

    def test_histogram_bucket_corruption_is_reported(self, report):
        bad = copy.deepcopy(report)
        hist = bad["metrics"]["net.link_queue_hwm"]
        assert hist["kind"] == "histogram"
        hist["counts"][0] += 1  # sum(counts) no longer matches count
        assert any("bucket counts sum" in p for p in check_report(bad))

    def test_non_monotonic_bounds_are_reported(self, report):
        bad = copy.deepcopy(report)
        hist = bad["metrics"]["net.link_queue_hwm"]
        hist["bounds"][1] = hist["bounds"][0]
        assert any("strictly increasing" in p for p in check_report(bad))

    def test_gauge_hwm_below_value_is_reported(self, report):
        bad = copy.deepcopy(report)
        gauge = bad["metrics"]["engine.sim_s"]
        gauge["hwm"] = gauge["value"] - 1.0
        assert any("hwm" in p for p in check_report(bad))

    def test_negative_counter_is_reported(self, report):
        bad = copy.deepcopy(report)
        bad["metrics"]["engine.events"]["value"] = -5
        assert any("counter" in p for p in check_report(bad))

    def test_utilization_out_of_range_is_reported(self, report):
        bad = copy.deepcopy(report)
        bad["sweep"]["utilization"] = 1.5
        assert any("utilization" in p for p in check_report(bad))

    def test_span_without_name_is_reported(self, report):
        bad = copy.deepcopy(report)
        del bad["phases"]["children"][0]["name"]
        assert any("name" in p for p in check_report(bad))

    def test_non_dict_report_is_rejected(self):
        assert check_report([]) == ["report must be a JSON object"]

    @pytest.mark.parametrize(
        "mutate, needle",
        [
            (lambda r: r["metrics"]["engine.events"].update(value=True), "'value'"),
            (lambda r: r["sweep"].update(workers=True), "'workers'"),
            (lambda r: r["sweep"]["seeds"][0].update(degree=True), "'degree'"),
            (lambda r: r["phases"]["children"][0].update(events=True), "'events'"),
            (lambda r: r.update(schema_version=True), "schema_version"),
        ],
        ids=["counter-value", "sweep-workers", "seed-degree", "span-events", "version"],
    )
    def test_json_true_is_not_an_int(self, report, mutate, needle):
        """``isinstance(True, int)`` holds in Python; in a report it is damage."""
        bad = copy.deepcopy(report)
        mutate(bad)
        problems = check_report(bad)
        assert any(needle in p and "got True" in p for p in problems), problems


class TestFormatReport:
    def test_summary_names_phases_metrics_and_sweep(self, report):
        text = format_report(report)
        for expected in (
            "profile:",
            "phases (wall time):",
            "convergence",
            "metrics:",
            "engine.events",
            "sweep: 1/1 seeds",
        ):
            assert expected in text


class TestProfileCli:
    def test_profile_smoke_writes_a_valid_report(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        rc = main(["profile", "--smoke", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["kind"] == REPORT_KIND
        assert report["schema_version"] == SCHEMA_VERSION
        assert check_report(report) == []
        # Per-phase wall times ...
        names = [c["name"] for c in report["phases"]["children"]]
        assert "convergence" in names and "steady" in names
        # ... per-protocol message/byte counts ...
        assert report["metrics"]["proto.dbf.messages"]["value"] > 0
        assert report["metrics"]["proto.dbf.bytes"]["value"] > 0
        # ... and per-seed sweep telemetry.
        assert report["sweep"]["completed_tasks"] == 2
        assert all(
            t["elapsed_s"] > 0 and t["ok"] for t in report["sweep"]["seeds"]
        )
        text = capsys.readouterr().out
        assert "phases (wall time):" in text

    def test_profile_without_sweep_omits_telemetry(self, tmp_path):
        out = tmp_path / "profile.json"
        rc = main(
            ["profile", "--protocol", "bgp3", "--seed", "2", "--out", str(out)]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["sweep"] is None
        assert report["scenario"]["protocol"] == "bgp3"
        assert check_report(report) == []
