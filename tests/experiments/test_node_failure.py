"""Tests for whole-router failure experiments."""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.extensions import run_node_failure_scenario

TINY = ExperimentConfig.quick().with_(
    rows=5, cols=5, degrees=(4,), runs=1, post_fail_window=40.0
)


class TestNodeFailureScenario:
    def test_dbf_recovers_from_router_crash(self):
        r = run_node_failure_scenario("dbf", 4, 1, TINY)
        assert r.sent > 0
        assert r.recovered
        assert r.failed_node not in (r.sent, r.delivered)  # sanity

    def test_rip_loses_more_than_dbf_on_router_crash(self):
        """The paper's protocol ranking survives the harsher failure mode."""
        rip = run_node_failure_scenario("rip", 4, 1, TINY)
        dbf = run_node_failure_scenario("dbf", 4, 1, TINY)
        assert dbf.delivery_ratio >= rip.delivery_ratio
        assert dbf.recovered

    def test_accounting_sane(self):
        r = run_node_failure_scenario("rip", 4, 1, TINY)
        assert 0 < r.delivered <= r.sent
        assert r.drops_no_route + r.drops_ttl <= r.sent - r.delivered + 5

    def test_deterministic(self):
        a = run_node_failure_scenario("dbf", 4, 3, TINY)
        b = run_node_failure_scenario("dbf", 4, 3, TINY)
        assert (a.failed_node, a.delivered) == (b.failed_node, b.delivered)

    def test_failed_node_is_interior_path_router(self):
        r = run_node_failure_scenario("static", 4, 2, TINY)
        assert r.failed_node not in (r.sent,)  # structural sanity below
        assert 0 <= r.failed_node < TINY.rows * TINY.cols
