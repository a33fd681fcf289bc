"""Tests for multi-run aggregation."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_point, run_sweep

TINY = ExperimentConfig.quick().with_(
    rows=5, cols=5, degrees=(4,), runs=3, post_fail_window=30.0
)


class TestRunPoint:
    def test_runs_requested_seeds(self):
        point = run_point("dbf", 4, TINY)
        assert point.n_runs == 3
        assert [r.seed for r in point.runs] == [TINY.seed, TINY.seed + 1, TINY.seed + 2]

    def test_means_are_averages(self):
        point = run_point("rip", 4, TINY)
        expected = sum(r.drops_no_route for r in point.runs) / 3
        assert point.mean_drops_no_route == pytest.approx(expected)

    def test_mean_throughput_aligned(self):
        point = run_point("dbf", 4, TINY)
        series = point.mean_throughput()
        assert len(series) == len(point.runs[0].throughput)
        assert series.times == point.runs[0].throughput.times

    def test_delivery_ratio_in_unit_interval(self):
        point = run_point("dbf", 4, TINY)
        assert 0.0 <= point.mean_delivery_ratio <= 1.0

    def test_convergence_success_rate(self):
        good = run_point("dbf", 4, TINY)
        assert all(r.converged_to_expected for r in good.runs)
        stuck = run_point("static", 4, TINY)
        assert not any(r.converged_to_expected for r in stuck.runs)


class TestParallelExecution:
    def test_parallel_results_identical_to_serial(self):
        cfg = TINY.with_(runs=2)
        serial = run_point("dbf", 4, cfg, workers=1)
        parallel = run_point("dbf", 4, cfg, workers=2)
        assert [r.delivered for r in serial.runs] == [
            r.delivered for r in parallel.runs
        ]
        assert [r.drops_no_route for r in serial.runs] == [
            r.drops_no_route for r in parallel.runs
        ]
        assert serial.mean_routing_convergence == parallel.mean_routing_convergence


class TestRunSweep:
    def test_covers_protocol_degree_grid(self):
        cfg = TINY.with_(protocols=("rip", "dbf"), degrees=(3, 4), runs=1)
        results = run_sweep(cfg)
        assert set(results) == {("rip", 3), ("rip", 4), ("dbf", 3), ("dbf", 4)}
        assert all(p.n_runs == 1 for p in results.values())
