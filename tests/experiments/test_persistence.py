"""Tests for result persistence (JSON round-trips)."""

from __future__ import annotations

import json

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.persistence import (
    failure_from_dict,
    failure_to_dict,
    load_points,
    save_points,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.experiments.runner import SweepFailure, run_point
from repro.experiments.scenario import run_scenario

TINY = ExperimentConfig.quick().with_(
    rows=5, cols=5, degrees=(4,), runs=2, post_fail_window=30.0
)


class TestScenarioRoundTrip:
    def test_all_scalars_survive(self):
        original = run_scenario("dbf", 4, 1, TINY)
        restored = scenario_from_dict(scenario_to_dict(original))
        for field in (
            "protocol", "degree", "seed", "sent", "delivered",
            "drops_no_route", "drops_ttl", "drops_link_down", "drops_queue",
            "routing_convergence", "forwarding_convergence",
            "converged_to_expected", "transient_path_count",
            "messages", "withdrawals", "failed_link", "initial_path",
        ):
            assert getattr(restored, field) == getattr(original, field), field

    def test_series_survive(self):
        original = run_scenario("dbf", 4, 1, TINY)
        restored = scenario_from_dict(scenario_to_dict(original))
        assert restored.throughput.times == original.throughput.times
        assert restored.throughput.values == original.throughput.values
        assert restored.delay.values == original.delay.values

    def test_reordering_survives(self):
        original = run_scenario("dbf", 4, 1, TINY)
        restored = scenario_from_dict(scenario_to_dict(original))
        assert restored.reordering == original.reordering

    def test_dict_is_json_serializable(self):
        original = run_scenario("rip", 4, 2, TINY)
        json.dumps(scenario_to_dict(original))

    def test_monitor_skips_survive(self):
        original = run_scenario("dbf", 4, 1, TINY)
        original.monitor_skips = {"counting_to_infinity": "holddown active"}
        restored = scenario_from_dict(scenario_to_dict(original))
        assert restored.monitor_skips == original.monitor_skips

    def test_loop_report_survives(self):
        original = run_scenario("dbf", 4, 1, TINY.with_(record_paths=True))
        assert original.loop_report is not None
        restored = scenario_from_dict(scenario_to_dict(original))
        assert restored.loop_report == original.loop_report

    def test_full_round_trip_is_lossless(self):
        original = run_scenario(
            "dbf", 4, 1, TINY.with_(record_paths=True, validate=True)
        )
        first = scenario_to_dict(original)
        second = scenario_to_dict(scenario_from_dict(first))
        assert first == second

    def test_dump_path_survives(self):
        original = run_scenario("dbf", 4, 1, TINY)
        original.dump_path = "/tmp/sweep/flight-dbf-d4-s1.json"
        restored = scenario_from_dict(scenario_to_dict(original))
        assert restored.dump_path == original.dump_path

    def test_dump_path_absent_in_old_files_loads_as_none(self):
        data = scenario_to_dict(run_scenario("dbf", 4, 1, TINY))
        del data["dump_path"]
        assert scenario_from_dict(data).dump_path is None

    def test_empty_expected_final_path_not_collapsed_to_none(self):
        data = scenario_to_dict(run_scenario("dbf", 4, 1, TINY))
        data["expected_final_path"] = []
        restored = scenario_from_dict(data)
        assert restored.expected_final_path == ()
        data["expected_final_path"] = None
        assert scenario_from_dict(data).expected_final_path is None

    def test_empty_reordering_dict_not_collapsed_to_none(self):
        data = scenario_to_dict(run_scenario("dbf", 4, 1, TINY))
        data["reordering"] = {
            "delivered": 0, "late_packets": 0,
            "max_displacement": 0, "episodes": 0,
        }
        restored = scenario_from_dict(data)
        assert restored.reordering is not None
        assert restored.reordering.delivered == 0


class TestFailureRoundTrip:
    def test_failure_survives(self):
        failure = SweepFailure(
            protocol="dbf", degree=4, seed=7, error="ValueError: boom"
        )
        assert failure_from_dict(failure_to_dict(failure)) == failure


class TestSweepFiles:
    def test_save_load_round_trip(self, tmp_path):
        points = {
            ("dbf", 4): run_point("dbf", 4, TINY),
            ("rip", 4): run_point("rip", 4, TINY),
        }
        path = tmp_path / "sweep.json"
        save_points(points, str(path))
        loaded = load_points(str(path))
        assert set(loaded) == set(points)
        for key in points:
            assert loaded[key].n_runs == points[key].n_runs
            assert loaded[key].mean_drops_no_route == points[key].mean_drops_no_route
            assert (
                loaded[key].mean_throughput().values
                == points[key].mean_throughput().values
            )

    def test_point_failures_survive(self, tmp_path):
        point = run_point("dbf", 4, TINY)
        point.failures.append(
            SweepFailure(protocol="dbf", degree=4, seed=99, error="timed out")
        )
        path = tmp_path / "sweep.json"
        save_points({("dbf", 4): point}, str(path))
        loaded = load_points(str(path))
        assert loaded[("dbf", 4)].failures == point.failures

    def test_save_load_save_is_byte_identical(self, tmp_path):
        cfg = TINY.with_(record_paths=True, validate=True)
        point = run_point("dbf", 4, cfg)
        point.failures.append(
            SweepFailure(protocol="dbf", degree=4, seed=99, error="crash")
        )
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        save_points({("dbf", 4): point}, str(first))
        save_points(load_points(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 999, "points": []}))
        with pytest.raises(ValueError):
            load_points(str(path))

    @pytest.mark.parametrize("version", [1, 2])
    def test_pre_v3_file_refused_by_name(self, tmp_path, version):
        """No migration shim: a single-failure-era file fails with one line
        naming the version found and the version supported."""
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"format_version": version, "points": []}))
        with pytest.raises(ValueError) as excinfo:
            load_points(str(path))
        message = str(excinfo.value)
        assert "\n" not in message
        assert f"version {version}" in message
        assert "only version 3" in message

    def test_v3_events_round_trip(self):
        original = run_scenario("dbf", 4, 1, TINY)
        assert original.events, "default scenario schedules one fail event"
        restored = scenario_from_dict(scenario_to_dict(original))
        assert restored.events == original.events
        assert restored.initial_path == original.initial_path

    def test_file_is_human_readable_json(self, tmp_path):
        points = {("dbf", 4): run_point("dbf", 4, TINY.with_(runs=1))}
        path = tmp_path / "sweep.json"
        save_points(points, str(path))
        payload = json.loads(path.read_text())
        assert payload["points"][0]["protocol"] == "dbf"
