"""Tests for the durable sweep shard/manifest store."""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SweepFailure
from repro.experiments.scenario import run_scenario
from repro.experiments.persistence import FORMAT_VERSION
from repro.experiments.store import StoreMismatchError, SweepStore

TINY = ExperimentConfig.quick().with_(
    rows=5, cols=5, degrees=(4,), runs=2, post_fail_window=10.0,
    protocols=("static",),
)


def make_store(tmp_path, config=TINY):
    store = SweepStore(tmp_path / "ck")
    store.open(config)
    return store


class TestManifest:
    def test_open_creates_manifest_with_grid_and_hash(self, tmp_path):
        store = make_store(tmp_path)
        manifest = json.loads(open(store.manifest_path).read())
        assert manifest["format_version"] == FORMAT_VERSION
        assert manifest["config_hash"] == TINY.fingerprint()
        assert store.grid() == TINY.grid()
        assert store.load_config() == TINY

    def test_reopen_same_config_ok(self, tmp_path):
        store = make_store(tmp_path)
        store.close()
        again = SweepStore(store.directory)
        again.open(TINY)  # no raise
        assert again.grid() == TINY.grid()

    def test_reopen_different_config_rejected(self, tmp_path):
        store = make_store(tmp_path)
        store.close()
        other = SweepStore(store.directory)
        with pytest.raises(StoreMismatchError):
            other.open(TINY.with_(runs=3))

    def test_fingerprint_stable_and_sensitive(self):
        assert TINY.fingerprint() == TINY.with_().fingerprint()
        assert TINY.fingerprint() != TINY.with_(seed=2).fingerprint()


class TestShards:
    def test_append_load_round_trip(self, tmp_path):
        store = make_store(tmp_path)
        run = run_scenario("static", 4, 1, TINY)
        failure = SweepFailure(
            protocol="static", degree=4, seed=2, error="timed out"
        )
        store.append(run)
        store.append(failure)
        store.close()
        outcomes = store.load_outcomes()
        assert set(outcomes) == {("static", 4, 1), ("static", 4, 2)}
        assert outcomes[("static", 4, 2)] == failure
        assert outcomes[("static", 4, 1)].delivered == run.delivered

    def test_completed_tasks_name_what_was_appended(self, tmp_path):
        store = make_store(tmp_path)
        store.append(run_scenario("static", 4, 2, TINY))  # second seed first
        store.close()
        assert store.completed_tasks() == {("static", 4, 2)}

    def test_torn_trailing_line_ignored_on_load(self, tmp_path):
        store = make_store(tmp_path)
        store.append(run_scenario("static", 4, 1, TINY))
        store.close()
        with open(store.shards_path, "a") as f:
            f.write('{"kind": "run", "run": {"protocol"')  # torn by a kill
        assert set(store.load_outcomes()) == {("static", 4, 1)}

    def test_torn_trailing_line_truncated_on_reopen(self, tmp_path):
        store = make_store(tmp_path)
        store.append(run_scenario("static", 4, 1, TINY))
        store.close()
        with open(store.shards_path, "a") as f:
            f.write('{"kind": "failure", "fail')
        reopened = SweepStore(store.directory)
        reopened.open(TINY)
        # The torn tail is gone; a fresh append produces a clean record.
        reopened.append(run_scenario("static", 4, 2, TINY))
        reopened.close()
        lines = open(reopened.shards_path).read().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)

    def test_duplicate_records_first_wins(self, tmp_path):
        store = make_store(tmp_path)
        first = run_scenario("static", 4, 1, TINY)
        store.append(first)
        store.append(
            SweepFailure(protocol="static", degree=4, seed=1, error="late dup")
        )
        store.close()
        outcome = store.load_outcomes()[("static", 4, 1)]
        assert not isinstance(outcome, SweepFailure)

    def test_unknown_record_kind_rejected(self, tmp_path):
        store = make_store(tmp_path)
        with open(store.shards_path, "a") as f:
            f.write('{"kind": "mystery"}\n')
        with pytest.raises(ValueError):
            store.load_outcomes()

    def test_empty_store_has_no_outcomes(self, tmp_path):
        store = make_store(tmp_path)
        assert store.load_outcomes() == {}


class TestConfigDictRoundTrip:
    def test_to_from_dict(self):
        assert ExperimentConfig.from_dict(TINY.to_dict()) == TINY

    def test_to_dict_is_json_ready(self):
        json.dumps(TINY.to_dict())

    def test_to_dict_carries_exactly_the_current_fields(self):
        # The fingerprint hashes to_dict(): a key for an option that no
        # longer exists would split checkpoints over nothing.
        keys = set(TINY.to_dict())
        assert keys == {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert "event_queue" not in keys

    def test_from_dict_names_unknown_keys(self):
        foreign = {**TINY.to_dict(), "event_queue": None, "zeta": 1}
        with pytest.raises(ValueError, match=r"\['event_queue', 'zeta'\]"):
            ExperimentConfig.from_dict(foreign)

    def test_load_config_of_foreign_manifest_is_a_mismatch(self, tmp_path):
        store = make_store(tmp_path)
        manifest = json.loads(open(store.manifest_path).read())
        manifest["config"]["event_queue"] = None
        with open(store.manifest_path, "w") as f:
            json.dump(manifest, f)
        with pytest.raises(StoreMismatchError, match="fresh directory"):
            SweepStore(store.directory).load_config()

    def test_unsupported_manifest_version_rejected(self, tmp_path):
        store = make_store(tmp_path)
        manifest = json.loads(open(store.manifest_path).read())
        manifest["format_version"] = 99
        with open(store.manifest_path, "w") as f:
            json.dump(manifest, f)
        fresh = SweepStore(store.directory)
        with pytest.raises(ValueError):
            fresh.open(TINY)
