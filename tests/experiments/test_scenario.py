"""Integration tests for the single-run scenario harness."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import run_scenario

TINY = ExperimentConfig.quick().with_(
    rows=5, cols=5, degrees=(4,), runs=1, post_fail_window=40.0
)


class TestRunScenario:
    def test_accounting_is_complete(self):
        r = run_scenario("dbf", degree=4, seed=1, config=TINY)
        # Every originated packet is delivered, dropped, or still in flight
        # when the run ends (in-flight at most a handful).
        accounted = r.delivered + r.total_drops
        assert accounted <= r.sent
        assert r.sent - accounted < 10

    def test_sender_receiver_on_first_and_last_row(self):
        r = run_scenario("static", degree=4, seed=3, config=TINY)
        # Hosts get ids above the mesh; their routers are path[1] / path[-2].
        sender_router = r.initial_path[1]
        receiver_router = r.initial_path[-2]
        assert 0 <= sender_router < TINY.cols
        assert (TINY.rows - 1) * TINY.cols <= receiver_router < TINY.rows * TINY.cols

    def test_failed_link_is_on_pre_failure_path(self):
        r = run_scenario("dbf", degree=4, seed=2, config=TINY)
        edges = set(zip(r.initial_path, r.initial_path[1:]))
        a, b = r.failed_link
        assert (a, b) in edges or (b, a) in edges

    def test_failed_link_never_touches_hosts(self):
        for seed in range(1, 6):
            r = run_scenario("static", degree=4, seed=seed, config=TINY)
            assert r.sender not in r.failed_link
            assert r.receiver not in r.failed_link

    def test_same_seed_is_deterministic(self):
        a = run_scenario("dbf", degree=4, seed=7, config=TINY)
        b = run_scenario("dbf", degree=4, seed=7, config=TINY)
        assert a.drops_no_route == b.drops_no_route
        assert a.delivered == b.delivered
        assert a.routing_convergence == b.routing_convergence
        assert a.throughput.values == b.throughput.values

    def test_different_seeds_vary_layout(self):
        layouts = {
            run_scenario("static", degree=4, seed=s, config=TINY).failed_link
            for s in range(1, 8)
        }
        assert len(layouts) > 1

    def test_throughput_series_normalized_to_failure(self):
        r = run_scenario("dbf", degree=4, seed=1, config=TINY)
        assert r.throughput.times[0] == pytest.approx(
            TINY.traffic_start - TINY.fail_time
        )
        # Pre-failure bins carry full rate.
        assert r.throughput.values[0] == pytest.approx(TINY.rate_pps, rel=0.2)

    def test_static_baseline_never_recovers(self):
        r = run_scenario("static", degree=4, seed=1, config=TINY)
        assert not r.converged_to_expected
        assert r.delivered < r.sent
        post = r.throughput.window(5.0, 30.0)
        assert post.mean_value() == 0.0

    def test_loop_report_only_with_record_paths(self):
        r = run_scenario("dbf", degree=4, seed=1, config=TINY)
        assert r.loop_report is None
        r2 = run_scenario("dbf", degree=4, seed=1, config=TINY.with_(record_paths=True))
        assert r2.loop_report is not None

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            run_scenario("ospfv3", degree=4, seed=1, config=TINY)

    def test_cold_start_mode_runs(self):
        cfg = TINY.with_(cold_start=True, cold_warmup=120.0, post_fail_window=30.0)
        r = run_scenario("dbf", degree=4, seed=1, config=cfg)
        assert r.delivered > 0
        assert r.converged_to_expected
