"""Telemetry transparency: a logged run == an unlogged run, bit for bit.

The run-event log's contract (inherited from the registry and the flight
recorder) is that logging is harvest-only — writers read already-maintained
counters strictly between engine events, never schedule anything, and never
touch an RNG.  These tests pin that on the golden points
(``tests/golden/runs.py``): dbf and bgp3 at seed 7 (fast clean recovery)
and rip at seed 11 (slow periodic-update recovery), 1-process and 3-shard.
"""

from __future__ import annotations

import pytest

from repro.experiments.persistence import diff_runs
from repro.experiments.runner import run_sweep
from repro.experiments.scenario import run_scenario
from repro.obs.live import check_log, read_log, summarize_log
from repro.obs.sweeps import SweepTelemetry

from tests.golden.runs import GOLDEN_CONFIG, GOLDEN_POINTS


@pytest.mark.parametrize("protocol,seed", GOLDEN_POINTS)
def test_single_process_log_is_transparent(tmp_path, protocol, seed):
    quiet = run_scenario(protocol, 4, seed, GOLDEN_CONFIG)
    path = tmp_path / "run.log"
    logged = run_scenario(protocol, 4, seed, GOLDEN_CONFIG, live_log=path)
    assert diff_runs(quiet, logged) == []
    records = read_log(path)
    assert check_log(records) == []
    assert summarize_log(records).ended


@pytest.mark.parametrize("protocol,seed", GOLDEN_POINTS)
def test_sharded_log_is_transparent(tmp_path, protocol, seed):
    config = GOLDEN_CONFIG.with_(shards=3)
    quiet = run_scenario(protocol, 4, seed, config)
    logged = run_scenario(protocol, 4, seed, config, live_log=tmp_path / "run.log")
    assert diff_runs(quiet, logged) == []
    assert check_log(read_log(tmp_path / "run.log")) == []


def test_sweep_log_records_every_seed(tmp_path):
    config = GOLDEN_CONFIG.with_(protocols=("dbf",), degrees=(4,), runs=3)
    path = tmp_path / "sweep.log"
    results = run_sweep(config, live_log=path)
    records = read_log(path)
    assert check_log(records) == []
    assert records[0]["run"] == "sweep"

    begin = next(r for r in records if r["kind"] == "sweep")
    assert begin["phase"] == "begin" and begin["total_tasks"] == 3

    seeds = [r for r in records if r["kind"] == "seed"]
    assert [(s["protocol"], s["degree"]) for s in seeds] == [("dbf", 4)] * 3
    assert sorted(s["seed"] for s in seeds) == [1, 2, 3]
    assert all(s["ok"] for s in seeds)
    # done counts the current task, so the last record says 3/3.
    assert [s["done"] for s in sorted(seeds, key=lambda s: s["seed"])][-1] == 3
    assert all(s["total"] == 3 for s in seeds)

    end = [r for r in records if r["kind"] == "sweep"][-1]
    assert end["phase"] == "end" and end["wall_s"] > 0
    assert records[-1] == {"kind": "end", "ok": True}

    summary = summarize_log(records)
    assert summary.sweep.done == 3 and summary.sweep.failed == 0
    assert results[("dbf", 4)].mean_delivery_ratio > 0


def test_sweep_results_identical_with_and_without_log(tmp_path):
    config = GOLDEN_CONFIG.with_(protocols=("dbf",), degrees=(4,), runs=2)
    quiet = run_sweep(config)
    logged = run_sweep(
        config, live_log=tmp_path / "sweep.log", telemetry=SweepTelemetry()
    )
    assert logged.keys() == quiet.keys()
    for key, point in quiet.items():
        assert logged[key].failures == point.failures == []
        assert len(logged[key].runs) == len(point.runs) == 2
        for a, b in zip(point.runs, logged[key].runs):
            assert diff_runs(a, b) == []
