"""Tests for the command-line interface."""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.cli import build_parser, main
from repro.experiments.config import ExperimentConfig
from repro.experiments.store import SweepStore


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.protocol == "dbf"
        assert args.degree == 4

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--protocol", "ospfv99"])

    def test_figure_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "9"])


class TestCommands:
    def test_topology_command(self, capsys):
        assert main(["topology", "--degree", "5", "--rows", "5", "--cols", "5"]) == 0
        out = capsys.readouterr().out
        assert "25 nodes" in out
        assert "connected: True" in out

    def test_run_command(self, capsys):
        assert main(["run", "--protocol", "static", "--degree", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "sent=" in out
        assert "failed link" in out

    def test_figure2_command(self, capsys):
        assert main(["figure", "2"]) == 0
        out = capsys.readouterr().out
        assert "degree 4" in out and "degree 6" in out

    def test_figure3_command_small(self, capsys):
        assert (
            main(
                [
                    "figure",
                    "3",
                    "--degrees",
                    "4",
                    "--runs",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "rip" in out

    def test_figure_command_reaches_ablation_rows(self, capsys):
        assert main(["figure", "abl2", "--degrees", "4", "--runs", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "Ablation: alternate-path cache (drops, RIP vs DBF)"
        assert lines[2].split() == ["degree", "rip", "dbf"]

    def test_trace_timeline_command(self, capsys):
        assert main(["trace", "--protocol", "dbf", "--degree", "4", "--seed", "1",
                     "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "Causal convergence timeline" in out
        assert "forwarding path" in out  # the FIB changes make the flow's path

    def test_sweep_save_option(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        assert (
            main(["sweep", "--protocols", "static", "--degrees", "4",
                  "--runs", "1", "--save", str(path)])
            == 0
        )
        assert path.exists()

    def test_sweep_resume_refuses_foreign_checkpoint_in_one_line(
        self, capsys, tmp_path
    ):
        # A manifest written by a version that still had the event_queue
        # option: named error, no traceback, non-zero exit.
        store = SweepStore(tmp_path / "ck")
        store.open(ExperimentConfig.quick().with_(protocols=("static",)))
        manifest = json.loads(open(store.manifest_path).read())
        manifest["config"]["event_queue"] = "heap"
        with open(store.manifest_path, "w") as f:
            json.dump(manifest, f)
        assert main(["sweep", "--checkpoint", store.directory, "--resume"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert "different version/configuration" in line
        assert "event_queue" in line and "fresh directory" in line

    @pytest.mark.parametrize("command", ["sweep", "reproduce"])
    def test_checkpoint_of_another_config_is_a_one_line_error(
        self, command, capsys, tmp_path
    ):
        # Without --resume the command line's config meets the manifest's.
        store = SweepStore(tmp_path / "ck")
        store.open(ExperimentConfig.quick().with_(degrees=(4,), runs=1))
        argv = [command, "--checkpoint", store.directory, "--degrees", "6", "--runs", "1"]
        if command == "reproduce":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: checkpoint at")
        assert "different configuration" in line and "Traceback" not in line
        assert not (tmp_path / "ck" / "shards.jsonl").exists()  # nothing simulated

    @pytest.mark.parametrize("command", ["sweep", "reproduce"])
    def test_ctrl_c_names_the_checkpoint_and_exits_130(
        self, command, capsys, tmp_path, monkeypatch
    ):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.experiments.runner.run_scenario", interrupted)
        ck = str(tmp_path / "ck")
        argv = [command, "--checkpoint", ck, "--degrees", "4", "--runs", "1"]
        if command == "reproduce":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 130
        err = capsys.readouterr().err
        assert f"rerun with --checkpoint {ck} to continue" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("checkpointed", [True, False])
    def test_dead_worker_names_the_checkpoint_and_exits_1(
        self, checkpointed, capsys, tmp_path, monkeypatch
    ):
        def dies(*args, **kwargs):
            os._exit(3)  # only pool workers run it: --workers 2

        monkeypatch.setattr("repro.experiments.runner.run_scenario", dies)
        ck = str(tmp_path / "ck")
        argv = ["sweep", "--degrees", "4", "--runs", "2", "--workers", "2"]
        if checkpointed:
            argv += ["--checkpoint", ck]
        assert main(argv) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("a pool worker died; ")
        if checkpointed:
            assert f"rerun with --checkpoint {ck} to continue" in line
        else:
            assert "nothing checkpointed" in line
        assert multiprocessing.active_children() == []

    def test_validate_command_small(self, capsys):
        assert (
            main(["validate", "--seeds", "2", "--degrees", "3",
                  "--oracle-seeds", "1"])
            == 0
        )
        out = capsys.readouterr().out
        assert "fuzz: 2 cases" in out
        assert "differential oracle" in out
        assert "validation OK" in out

    def test_validate_skip_oracle(self, capsys):
        assert main(["validate", "--seeds", "1", "--skip-oracle"]) == 0
        out = capsys.readouterr().out
        assert "differential oracle" not in out
        assert "validation OK" in out

    def test_sweep_command_small(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--protocols",
                    "static",
                    "--degrees",
                    "4",
                    "--runs",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "static" in out


class TestWatchCommand:
    def test_run_live_log_then_watch(self, capsys, tmp_path):
        path = tmp_path / "run.log"
        assert main([
            "run", "--protocol", "static", "--degree", "4", "--seed", "1",
            "--live-log", str(path),
        ]) == 0
        capsys.readouterr()
        assert main(["watch", str(path), "--once", "--check"]) == 0
        out = capsys.readouterr().out
        assert "log schema: ok" in out
        assert "scenario run [ENDED]" in out

    def test_watch_check_fails_on_corrupt_log(self, capsys, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text('{"kind": "heartbeat", "shard": 0}\n')
        assert main(["watch", str(path), "--once", "--check"]) == 1
        assert "LOG SCHEMA PROBLEMS" in capsys.readouterr().out

    def test_shard_perfetto_requires_live_log(self, capsys, tmp_path):
        rc = main(["shard", "--perfetto", str(tmp_path / "t.json")])
        assert rc == 2
        assert "--live-log" in capsys.readouterr().err

    def test_shard_live_log_and_perfetto(self, capsys, tmp_path):
        log = tmp_path / "shard.log"
        trace = tmp_path / "trace.json"
        assert main([
            "shard", "--protocol", "dbf", "--degree", "4", "--seed", "7",
            "--shards", "2", "--window", "8",
            "--live-log", str(log), "--perfetto", str(trace),
        ]) == 0
        out = capsys.readouterr().out
        assert "run-event log written" in out
        assert "cross-shard perfetto trace written" in out
        assert trace.exists()
        capsys.readouterr()
        assert main(["watch", str(log), "--once", "--check"]) == 0
        assert "shard run [ENDED]" in capsys.readouterr().out
