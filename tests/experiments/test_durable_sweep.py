"""Checkpointed, resumable sweeps.

Covers the durability contract end to end: completed seeds survive any
interruption (Ctrl-C, SIGTERM, a hard kill mid-append, a dead pool worker),
a resumed sweep re-runs only missing seeds and produces results
bit-identical to an uninterrupted run, and no interruption leaves a pool
worker behind.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.experiments.persistence import save_points
from repro.experiments.runner import SweepFailure, run_sweep
from repro.experiments.store import SweepStore
from repro.obs.live import read_log

TINY = ExperimentConfig.quick().with_(
    rows=5, cols=5, degrees=(4,), runs=3, post_fail_window=10.0,
    protocols=("static",),
)


def shard_lines(store: SweepStore) -> int:
    if not os.path.exists(store.shards_path):
        return 0
    with open(store.shards_path) as f:
        return sum(1 for _ in f)


def same_bytes(tmp_path, a_points, b_points) -> bool:
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_points(a_points, str(a))
    save_points(b_points, str(b))
    return a.read_bytes() == b.read_bytes()


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
        assert same_bytes(tmp_path, first, second)

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
    @pytest.mark.parametrize("workers", [1, 2])
    def test_sigint_mid_sweep_flushes_completed_shards(self, tmp_path, workers):
        """A KeyboardInterrupt surfacing mid-sweep must leave every already
        completed seed durably recorded and no pool worker, then propagate."""
        store = SweepStore(tmp_path / "ck")

        def interrupt_after_two(done, total, msg):
            if done == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_sweep(
                TINY, workers=workers, store=store, progress=interrupt_after_two
            )
        assert multiprocessing.active_children() == []
        assert shard_lines(store) == 2
        # And the interrupted sweep resumes to a complete, identical result.
        resumed = run_sweep(TINY, workers=workers, store=store)
        assert same_bytes(tmp_path, resumed, run_sweep(TINY))

    def test_dead_worker_ends_the_sweep_with_a_named_error(
        self, tmp_path, monkeypatch
    ):
        """A pool worker that dies ends the sweep with BrokenProcessPool once
        the store is flushed and the log ended; a rerun on the store resumes."""
        from concurrent.futures.process import BrokenProcessPool

        real = runner.run_scenario

        def dies_on_seed_2(protocol, degree, seed, *args, **kwargs):
            if seed == 2:
                os._exit(3)  # fork-started workers inherit the patch
            return real(protocol, degree, seed, *args, **kwargs)

        monkeypatch.setattr(runner, "run_scenario", dies_on_seed_2)
        store = SweepStore(tmp_path / "ck")
        log = tmp_path / "sweep.log"
        with pytest.raises(BrokenProcessPool):
            run_sweep(TINY, workers=2, store=store, live_log=log)
        assert multiprocessing.active_children() == []
        end = read_log(log)[-1]
        assert (end["kind"], end["ok"]) == ("end", False)
        assert "BrokenProcessPool" in end["error"]

        monkeypatch.undo()
        resumed = run_sweep(TINY, workers=2, store=store)
        assert same_bytes(tmp_path, resumed, run_sweep(TINY))


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
