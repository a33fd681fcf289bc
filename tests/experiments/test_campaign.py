"""Tests for the one-command reproduction campaign."""

from __future__ import annotations

import math
import os
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from repro.experiments import runner
from repro.experiments.campaign import reproduce
from repro.experiments.config import ExperimentConfig
from repro.experiments.persistence import load_points

MICRO = ExperimentConfig.quick().with_(
    rows=5,
    cols=5,
    degrees=(4, 5),
    runs=1,
    protocols=("rip", "dbf", "bgp", "bgp3"),
    post_fail_window=30.0,
)


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    out = tmp_path_factory.mktemp("repro_out")
    report = reproduce(MICRO, out_dir=str(out))
    return report


class TestReproduce:
    def test_all_figures_present(self, campaign):
        names = set(campaign.artifacts)
        for required in (
            "figure2_topologies.txt",
            "figure3_drops.txt",
            "figure3_drops.svg",
            "figure4_ttl.txt",
            "figure4_ttl.svg",
            "figure5_throughput.txt",
            "figure5_throughput.svg",
            "figure6_convergence.txt",
            "figure6a_forwarding.svg",
            "figure6b_routing.svg",
            "figure7_delay.txt",
            "figure7_delay.svg",
            "results.json",
            "REPORT.md",
        ):
            assert required in names
            assert os.path.exists(campaign.path(required))

    def test_svgs_are_valid_xml(self, campaign):
        for name in campaign.artifacts:
            if name.endswith(".svg"):
                ET.parse(campaign.path(name))

    def test_results_json_reloadable(self, campaign):
        points = load_points(campaign.path("results.json"))
        assert set(p for p, _ in points) == set(MICRO.protocols)

    def test_report_mentions_headline(self, campaign):
        with open(campaign.path("REPORT.md")) as f:
            text = f.read()
        assert "BGP" in text and "ratio" in text
        assert "Reproduction report" in text

    def test_headline_computed(self, campaign):
        assert set(campaign.headline) == {"bgp", "bgp3", "ratio"}


def _files(directory) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in Path(directory).iterdir()}


@pytest.fixture
def scenario_calls(monkeypatch):
    """The (protocol, degree, seed) of every scenario the runner simulates in
    this process, in call order."""
    calls = []
    real = runner.run_scenario

    def counted(protocol, degree, seed, *args, **kwargs):
        calls.append((protocol, degree, seed))
        return real(protocol, degree, seed, *args, **kwargs)

    monkeypatch.setattr(runner, "run_scenario", counted)
    return calls


class TestSimulatesEachPointOnce:
    """Figures 3-7 and the headline are projections of one sweep."""

    def test_one_run_per_grid_task_and_none_when_resumed(
        self, campaign, scenario_calls, tmp_path
    ):
        a, b, ck = (str(tmp_path / name) for name in ("a", "b", "ck"))
        reproduce(MICRO, out_dir=a, workers=1, checkpoint_dir=ck)
        # Exactly the grid: every task once, none twice, nothing else.
        assert sorted(scenario_calls) == sorted(MICRO.grid())
        scenario_calls.clear()
        reproduce(MICRO, out_dir=b, workers=1, checkpoint_dir=ck)
        assert scenario_calls == []
        assert _files(a) == _files(b) == _files(campaign.out_dir)

    def test_pooled_campaign_writes_the_same_files(self, campaign, tmp_path):
        pooled = reproduce(MICRO, out_dir=str(tmp_path / "pooled"), workers=2)
        assert pooled.headline == campaign.headline
        assert _files(pooled.out_dir) == _files(campaign.out_dir)

    def test_headline_outside_the_grid_is_simulated_on_demand(
        self, scenario_calls, tmp_path
    ):
        config = MICRO.with_(protocols=("rip", "dbf"), degrees=(4,))
        report = reproduce(config, out_dir=str(tmp_path / "out"))
        assert set(report.headline) == {"bgp", "bgp3", "ratio"}
        assert not math.isnan(report.headline["ratio"])
        (seed,) = config.seeds
        assert scenario_calls == config.grid() + [("bgp", 4, seed), ("bgp3", 4, seed)]

    def test_progress_reports_every_sweep_task(self, capsys, tmp_path):
        config = MICRO.with_(protocols=("static",), degrees=(4,))
        ck = str(tmp_path / "ck")
        reproduce(config, out_dir=str(tmp_path / "a"), progress=True, checkpoint_dir=ck)
        assert "[1/1] static degree=4 seed=1: ok" in capsys.readouterr().out
        reproduce(config, out_dir=str(tmp_path / "b"), progress=True, checkpoint_dir=ck)
        assert "[1/1]" not in capsys.readouterr().out  # resumed: nothing to wait for
