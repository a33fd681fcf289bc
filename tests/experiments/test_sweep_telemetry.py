"""Sweep execution telemetry: per-seed timing, one account, resume safety.

``run_sweep(telemetry=...)`` folds the sweep's run-log records into a
:class:`~repro.obs.sweeps.SweepTelemetry` with one timing per executed seed;
folding the written log gives the same account.  The checkpoint store
carries no telemetry, but a store an older version wrote, with
``{"kind": "telemetry"}`` lines interleaved, must still resume
bit-identically.
"""

from __future__ import annotations

import json

from repro.experiments.config import ExperimentConfig
from repro.experiments.persistence import save_points
from repro.experiments.runner import run_sweep
from repro.experiments.store import SweepStore
from repro.obs.live import check_log, read_log, summarize_log
from repro.obs.sweeps import SweepTelemetry

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
        assert all(t.attempts == 1 and not t.timed_out for t in telemetry.seeds)
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


#: A per-seed telemetry line as older versions appended to the shard log.
LEGACY_TELEMETRY = {
    "kind": "telemetry",
    "telemetry": {
        "protocol": "static", "degree": 4, "seed": 1, "elapsed_s": 0.25,
        "ok": True, "attempts": 1, "timed_out": False,
    },
}


def insert_legacy_telemetry(store: SweepStore) -> None:
    """Put one legacy telemetry line between the first two run records."""
    with open(store.shards_path, encoding="utf-8") as f:
        lines = f.readlines()
    assert [json.loads(line)["kind"] for line in lines[:2]] == ["run", "run"]
    lines.insert(1, json.dumps(LEGACY_TELEMETRY) + "\n")
    with open(store.shards_path, "w", encoding="utf-8") as f:
        f.writelines(lines)


class TestStoreTelemetry:
    def test_load_outcomes_skips_telemetry_records(self, tmp_path):
        store = SweepStore(tmp_path / "sweep")
        run_sweep(TINY, store=store, telemetry=SweepTelemetry())
        insert_legacy_telemetry(store)
        reopened = SweepStore(tmp_path / "sweep")
        reopened.open(TINY)
        outcomes = reopened.load_outcomes()
        assert set(outcomes) == set(TINY.grid())

    def test_resume_over_telemetry_records_is_identical(self, tmp_path):
        # A store an older version wrote, telemetry interleaved, must resume
        # to the same results as a plain uninterrupted sweep.
        store_dir = tmp_path / "sweep"
        store = SweepStore(store_dir)
        run_sweep(TINY, store=store)
        insert_legacy_telemetry(store)

        resumed_telemetry = SweepTelemetry()
        resumed = run_sweep(
            TINY, store=SweepStore(store_dir), telemetry=resumed_telemetry
        )
        # Nothing re-ran: all tasks came from the shards.
        assert resumed_telemetry.resumed_tasks == len(TINY.grid())
        assert resumed_telemetry.seeds == []

        plain = run_sweep(TINY)
        resumed_json = tmp_path / "resumed.json"
        plain_json = tmp_path / "plain.json"
        save_points(resumed, resumed_json)
        save_points(plain, plain_json)
        assert resumed_json.read_bytes() == plain_json.read_bytes()

    def test_shard_log_holds_only_outcomes(self, tmp_path):
        cfg = TINY.with_(degrees=(4, 9), runs=1)  # degree 9 crashes in-run
        store = SweepStore(tmp_path / "sweep")
        run_sweep(cfg, store=store, telemetry=SweepTelemetry())
        with open(store.shards_path, encoding="utf-8") as f:
            kinds = [json.loads(line)["kind"] for line in f]
        assert kinds == ["run", "failure"]


class TestOneAccount:
    def test_log_fold_equals_in_process_telemetry(self, tmp_path, monkeypatch):
        # A pooled sweep with a crashing seed and a worker death per task:
        # the log's fold and the in-process fold are the same account.
        markers = tmp_path / "markers"
        markers.mkdir()
        monkeypatch.setenv("REPRO_TEST_DIE_ONCE_DIR", str(markers))
        cfg = TINY.with_(degrees=(4, 9), runs=1)  # degree 9 crashes in-run
        log = tmp_path / "sweep.log"
        telemetry = SweepTelemetry()
        run_sweep(
            cfg, workers=2, retries=2, retry_backoff=0.05, live_log=log,
            telemetry=telemetry,
        )
        records = read_log(log)
        assert check_log(records) == []
        assert summarize_log(records).sweep.to_dict() == telemetry.to_dict()
        assert telemetry.failed >= 1
        assert telemetry.n_retries >= 1
        assert telemetry.done == len(cfg.grid()) == len(telemetry.seeds)
