"""Checkpointed, resumable, fault-tolerant sweeps.

Covers the durability contract end to end: completed seeds survive any
interruption (Ctrl-C, SIGTERM, a hard kill mid-append), a resumed sweep
re-runs only missing seeds and produces results bit-identical to an
uninterrupted run, and a hung or dying worker is contained as a recorded
:class:`SweepFailure` without stalling the pool.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.experiments.config import ExperimentConfig
from repro.experiments.persistence import save_points
from repro.experiments.runner import SweepFailure, run_sweep
from repro.experiments.store import SweepStore

TINY = ExperimentConfig.quick().with_(
    rows=5, cols=5, degrees=(4,), runs=3, post_fail_window=10.0,
    protocols=("static",),
)


def shard_lines(store: SweepStore) -> int:
    if not os.path.exists(store.shards_path):
        return 0
    with open(store.shards_path) as f:
        return sum(1 for _ in f)


class TestDurableRun:
    def test_sweep_writes_one_shard_per_task(self, tmp_path):
        store = SweepStore(tmp_path / "ck")
        results = run_sweep(TINY, store=store)
        assert results[("static", 4)].n_runs == 3
        assert shard_lines(store) == len(TINY.grid())

    def test_store_accepts_plain_path(self, tmp_path):
        results = run_sweep(TINY, store=str(tmp_path / "ck"))
        assert results[("static", 4)].n_runs == 3
        assert os.path.exists(tmp_path / "ck" / "manifest.json")

    def test_failures_are_checkpointed_too(self, tmp_path):
        cfg = TINY.with_(degrees=(4, 9), runs=1)  # degree 9 crashes in-run
        store = SweepStore(tmp_path / "ck")
        results = run_sweep(cfg, store=store)
        assert len(results[("static", 9)].failures) == 1
        # Resume re-runs nothing: the failure is a durable outcome.
        assert store.completed_tasks() == set(cfg.grid())

    def test_complete_store_reloads_without_rerunning(self, tmp_path):
        store_dir = tmp_path / "ck"
        first = run_sweep(TINY, store=store_dir)
        # Re-running with pacing high enough that any actual simulation
        # would blow the test timeout proves nothing is re-simulated.
        os.environ["REPRO_TEST_SLEEP_SECONDS"] = "60"
        try:
            second = run_sweep(TINY, store=store_dir)
        finally:
            del os.environ["REPRO_TEST_SLEEP_SECONDS"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_points(first, str(a))
        save_points(second, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_partial_store_runs_only_missing_seeds(self, tmp_path):
        store = SweepStore(tmp_path / "ck")
        store.open(TINY)
        # Pre-record seed 2 as a failure no simulation would produce: if the
        # resumed sweep re-ran it, the marker would be replaced by a run.
        marker = SweepFailure(
            protocol="static", degree=4, seed=2, error="pre-recorded marker"
        )
        store.append(marker)
        store.close()
        results = run_sweep(TINY, store=store)
        point = results[("static", 4)]
        assert point.failures == [marker]
        assert [r.seed for r in point.runs] == [1, 3]

    def test_mismatched_config_refused(self, tmp_path):
        from repro.experiments.store import StoreMismatchError

        store_dir = tmp_path / "ck"
        run_sweep(TINY, store=store_dir)
        with pytest.raises(StoreMismatchError):
            run_sweep(TINY.with_(runs=5), store=store_dir)

    def test_progress_callback_invoked_per_task(self, tmp_path):
        seen = []
        run_sweep(
            TINY,
            store=tmp_path / "ck",
            progress=lambda done, total, msg: seen.append((done, total)),
        )
        assert seen == [(1, 3), (2, 3), (3, 3)]


class TestInterruptHandling:
    def test_sigint_mid_sweep_flushes_completed_shards(self, tmp_path):
        """A KeyboardInterrupt surfacing mid-sweep must leave every already
        completed seed durably recorded, then propagate."""
        store = SweepStore(tmp_path / "ck")

        def interrupt_after_two(done, total, msg):
            if done == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_sweep(TINY, store=store, progress=interrupt_after_two)
        assert shard_lines(store) == 2
        # And the interrupted sweep resumes to a complete, identical result.
        resumed = run_sweep(TINY, store=store)
        clean = run_sweep(TINY)
        a, b = tmp_path / "resumed.json", tmp_path / "clean.json"
        save_points(resumed, str(a))
        save_points(clean, str(b))
        assert a.read_bytes() == b.read_bytes()


class TestKillAndResume:
    def test_sigterm_kill_then_resume_is_bit_identical(self, tmp_path):
        """The CI smoke in miniature: SIGTERM a sweep mid-flight, resume it,
        and require byte-for-byte equality with an uninterrupted run."""
        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                p for p in (src_root, os.environ.get("PYTHONPATH")) if p
            ),
            REPRO_TEST_SLEEP_SECONDS="0.2",
        )
        base = [
            sys.executable, "-m", "repro", "sweep",
            "--protocols", "static", "--degrees", "4", "--runs", "6",
        ]

        clean = tmp_path / "clean.json"
        subprocess.run(
            [*base, "--checkpoint", str(tmp_path / "clean_ck"),
             "--save", str(clean)],
            env=env, check=True, capture_output=True, timeout=120,
        )

        ck = tmp_path / "ck"
        proc = subprocess.Popen(
            [*base, "--checkpoint", str(ck), "--save", str(tmp_path / "x.json")],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            shards = ck / "shards.jsonl"
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if shards.exists() and shard_lines(SweepStore(ck)) >= 2:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("no shards appeared before the kill deadline")
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        killed_at = shard_lines(SweepStore(ck))
        assert 1 <= killed_at < 6, "kill landed outside mid-sweep"

        resumed = tmp_path / "resumed.json"
        subprocess.run(
            [*base, "--checkpoint", str(ck), "--save", str(resumed)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        assert clean.read_bytes() == resumed.read_bytes()

    def test_resume_flag_takes_config_from_manifest(self, tmp_path):
        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                p for p in (src_root, os.environ.get("PYTHONPATH")) if p
            ),
        )
        ck = tmp_path / "ck"
        run_sweep(TINY, store=ck)
        out = subprocess.run(
            [sys.executable, "-m", "repro", "sweep",
             "--checkpoint", str(ck), "--resume"],
            env=env, check=True, capture_output=True, text=True, timeout=120,
        )
        assert "static" in out.stdout


class TestTimeoutsAndRetries:
    def test_hung_seed_times_out_without_stalling_the_pool(self, tmp_path):
        os.environ["REPRO_TEST_HANG_SEEDS"] = "2"
        try:
            start = time.monotonic()
            results = run_sweep(TINY, workers=2, timeout=2.0)
            elapsed = time.monotonic() - start
        finally:
            del os.environ["REPRO_TEST_HANG_SEEDS"]
        point = results[("static", 4)]
        assert [r.seed for r in point.runs] == [1, 3]
        assert [f.seed for f in point.failures] == [2]
        assert "timeout" in point.failures[0].error
        assert elapsed < 30.0, "pool stalled behind the hung seed"

    def test_timeout_failures_are_checkpointed(self, tmp_path):
        os.environ["REPRO_TEST_HANG_SEEDS"] = "2"
        try:
            store = SweepStore(tmp_path / "ck")
            run_sweep(TINY, workers=2, timeout=2.0, store=store)
        finally:
            del os.environ["REPRO_TEST_HANG_SEEDS"]
        outcome = store.load_outcomes()[("static", 4, 2)]
        assert isinstance(outcome, SweepFailure)
        assert store.completed_tasks() == set(TINY.grid())

    def test_dead_worker_retried_then_succeeds(self, tmp_path):
        markers = tmp_path / "markers"
        markers.mkdir()
        os.environ["REPRO_TEST_DIE_ONCE_DIR"] = str(markers)
        try:
            results = run_sweep(TINY, workers=2, retries=2, retry_backoff=0.05)
        finally:
            del os.environ["REPRO_TEST_DIE_ONCE_DIR"]
        point = results[("static", 4)]
        assert point.n_runs == 3
        assert point.failures == []

    def test_retries_exhausted_records_failure(self, tmp_path):
        markers = tmp_path / "markers"
        markers.mkdir()
        os.environ["REPRO_TEST_DIE_ONCE_DIR"] = str(markers)
        try:
            # retries=0: the single death per task is already one too many.
            results = run_sweep(
                TINY.with_(runs=1), workers=1, timeout=30.0, retries=0,
            )
        finally:
            del os.environ["REPRO_TEST_DIE_ONCE_DIR"]
        point = results[("static", 4)]
        assert point.n_runs == 0
        assert len(point.failures) == 1
        assert "worker died" in point.failures[0].error

    def test_timeout_with_serial_workers_uses_pool(self):
        # timeout=... must be honored even at workers=1 (routed through a
        # one-worker pool; a truly serial run cannot preempt a hung seed).
        os.environ["REPRO_TEST_HANG_SEEDS"] = "1"
        try:
            results = run_sweep(
                TINY.with_(runs=1), workers=1, timeout=1.5,
            )
        finally:
            del os.environ["REPRO_TEST_HANG_SEEDS"]
        assert len(results[("static", 4)].failures) == 1
