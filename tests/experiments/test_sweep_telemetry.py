"""Sweep execution telemetry: per-seed timing, one account, resume safety.

``run_sweep(telemetry=...)`` folds the sweep's run-log records into a
:class:`~repro.obs.sweeps.SweepTelemetry` with one timing per executed seed;
folding the written log gives the same account.  The checkpoint store
carries no telemetry, and refuses a ``{"kind": "telemetry"}`` line.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_sweep
from repro.experiments.store import SweepStore
from repro.obs.live import check_log, read_log, summarize_log
from repro.obs.sweeps import SweepTelemetry
from repro.records import ArtifactError

TINY = ExperimentConfig.quick().with_(
    rows=5, cols=5, degrees=(4,), runs=3, post_fail_window=10.0,
    protocols=("static",),
)


class TestSerialTelemetry:
    def test_every_seed_gets_a_timing(self):
        telemetry = SweepTelemetry()
        results = run_sweep(TINY, telemetry=telemetry)
        assert len(telemetry.seeds) == len(TINY.grid())
        assert {(t.protocol, t.degree, t.seed) for t in telemetry.seeds} == set(
            TINY.grid()
        )
        assert all(t.ok and t.elapsed_s > 0 for t in telemetry.seeds)
        assert results[("static", 4)].n_runs == 3

    def test_aggregates_are_consistent(self):
        telemetry = SweepTelemetry()
        run_sweep(TINY, telemetry=telemetry)
        assert telemetry.total_tasks == len(TINY.grid())
        assert telemetry.resumed_tasks == 0
        assert telemetry.wall_s > 0
        assert telemetry.busy_s > 0
        assert 0.0 <= telemetry.utilization <= 1.0
        slowest = telemetry.slowest
        assert slowest is not None
        assert slowest.elapsed_s == max(t.elapsed_s for t in telemetry.seeds)
        assert telemetry.n_timeouts == 0
        assert telemetry.n_retries == 0

    def test_to_dict_is_json_ready(self):
        telemetry = SweepTelemetry()
        run_sweep(TINY, telemetry=telemetry)
        d = json.loads(json.dumps(telemetry.to_dict()))
        assert d["completed_tasks"] == len(TINY.grid())
        assert len(d["seeds"]) == len(TINY.grid())
        assert d["workers"] == 1


class TestPoolTelemetry:
    def test_pool_run_times_every_seed_in_worker(self):
        telemetry = SweepTelemetry()
        run_sweep(TINY, workers=2, telemetry=telemetry)
        assert telemetry.workers == 2
        assert len(telemetry.seeds) == len(TINY.grid())
        assert all(t.ok and t.elapsed_s > 0 for t in telemetry.seeds)


class TestStoreTelemetry:
    def test_legacy_telemetry_line_is_refused(self, tmp_path):
        # Older versions appended per-seed telemetry lines to the shard log;
        # such a store is refused, naming the file and the record.
        store = SweepStore(tmp_path / "sweep")
        run_sweep(TINY, store=store)
        with open(store.shards_path, encoding="utf-8") as f:
            lines = f.readlines()
        legacy = {"kind": "telemetry", "telemetry": {"protocol": "static", "seed": 1}}
        lines.insert(1, json.dumps(legacy) + "\n")
        with open(store.shards_path, "w", encoding="utf-8") as f:
            f.writelines(lines)
        with pytest.raises(ArtifactError) as info:
            run_sweep(TINY, store=SweepStore(tmp_path / "sweep"))
        message = str(info.value)
        assert f"{store.shards_path!r} record 2" in message
        assert "unknown shard record kind" in message

    def test_shard_log_holds_only_outcomes(self, tmp_path):
        cfg = TINY.with_(degrees=(4, 9), runs=1)  # degree 9 crashes in-run
        store = SweepStore(tmp_path / "sweep")
        run_sweep(cfg, store=store, telemetry=SweepTelemetry())
        with open(store.shards_path, encoding="utf-8") as f:
            kinds = [json.loads(line)["kind"] for line in f]
        assert kinds == ["run", "failure"]


class TestOneAccount:
    def test_log_fold_equals_in_process_telemetry(self, tmp_path):
        # A pooled sweep with a crashing seed: the log's fold and the
        # in-process fold are the same account.
        cfg = TINY.with_(degrees=(4, 9), runs=1)  # degree 9 crashes in-run
        log = tmp_path / "sweep.log"
        telemetry = SweepTelemetry()
        run_sweep(cfg, workers=2, live_log=log, telemetry=telemetry)
        records = read_log(log)
        assert check_log(records) == []
        assert summarize_log(records).sweep.to_dict() == telemetry.to_dict()
        assert telemetry.failed == 1
        assert telemetry.done == len(cfg.grid()) == len(telemetry.seeds)
