"""Fault injection: a hung or dead worker shard must never deadlock the run.

Uses the REPRO_TEST_SHARD_* hooks: the named shard hangs or dies when
asked to run a window reaching the given virtual time.  The coordinator must detect the stall via
the barrier timeout, tear every worker down, and surface the stalled
window's timestamp in the error.
"""

from __future__ import annotations

import re
import time

import pytest

from repro.dist.runner import ShardScenarioSpec, ShardStallError, run_sharded
from repro.dist.worker import DIE_ENV, HANG_ENV
from repro.experiments.config import ExperimentConfig

CONFIG = ExperimentConfig.quick().with_(
    rows=4, cols=4, runs=1, post_fail_window=8.0, shards=2
)


def _run_process_exchange(timeout: float):
    return run_sharded(
        ShardScenarioSpec.mesh("dbf", 4, 7, CONFIG),
        exchange="process",
        barrier_timeout=timeout,
    )


def test_hung_shard_raises_stall_with_window_time(monkeypatch):
    monkeypatch.setenv(HANG_ENV, "1:0")
    started = time.monotonic()
    with pytest.raises(ShardStallError) as excinfo:
        _run_process_exchange(timeout=2.0)
    elapsed = time.monotonic() - started
    err = excinfo.value
    assert err.shard_index == 1
    # The stalled window's virtual timestamp is in the message.
    assert re.search(r"stalled at window t=\d+\.\d{3}", str(err))
    assert err.window_time >= 0.0
    assert "no response within 2s" in str(err)
    # Detection is bounded by the barrier timeout, not the hang duration.
    assert elapsed < 30.0


def test_dead_shard_raises_stall_not_deadlock(monkeypatch):
    monkeypatch.setenv(DIE_ENV, "0:0")
    with pytest.raises(ShardStallError) as excinfo:
        _run_process_exchange(timeout=10.0)
    err = excinfo.value
    assert err.shard_index == 0
    assert "worker process died" in str(err)


def test_fault_hooks_are_inert_without_env(monkeypatch):
    monkeypatch.delenv(HANG_ENV, raising=False)
    monkeypatch.delenv(DIE_ENV, raising=False)
    result = _run_process_exchange(timeout=60.0)
    assert result.sent > 0
