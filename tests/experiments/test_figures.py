"""Tests for the per-figure harnesses (tiny configurations)."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import (
    SweepTable,
    ablation_alternate_cache,
    ablation_load_sensitivity,
    ablation_mrai_granularity,
    extension_linkstate,
    figure2_topologies,
    figure3_drops_no_route,
    figure4_ttl_expirations,
    figure5_throughput,
    figure6_convergence,
    figure7_delay,
    headline_bgp_vs_bgp3,
)
from repro.experiments.runner import run_sweep

TINY = ExperimentConfig.quick().with_(
    rows=5,
    cols=5,
    degrees=(4, 6),
    runs=1,
    protocols=("rip", "dbf"),
    post_fail_window=35.0,
)


class TestFigure2:
    def test_reports_structure_per_degree(self):
        out = figure2_topologies(5, 5, degrees=(4, 5, 6))
        assert set(out) == {4, 5, 6}
        for degree, info in out.items():
            assert info["n_nodes"] == 25
            assert info["connected"]
        assert out[6]["n_links"] > out[5]["n_links"] > out[4]["n_links"]


class TestSweepFigures:
    def test_figure3_shape(self):
        table = figure3_drops_no_route(TINY)
        assert isinstance(table, SweepTable)
        assert set(table.values) == {(p, d) for p in TINY.protocols for d in TINY.degrees}
        assert all(v >= 0 for v in table.values.values())

    def test_figure3_series_accessor(self):
        table = figure3_drops_no_route(TINY)
        series = table.series("rip")
        assert [d for d, _ in series] == [4, 6]

    def test_figure4_shape(self):
        table = figure4_ttl_expirations(TINY)
        assert all(v >= 0 for v in table.values.values())

    def test_figure6_returns_two_tables(self):
        fwd, rt = figure6_convergence(TINY)
        assert "6a" in fwd.title and "6b" in rt.title
        for key in fwd.values:
            assert rt.values[key] >= 0


class TestSeriesFigures:
    def test_figure5_series_cover_requested_grid(self):
        out = figure5_throughput(TINY, degrees=(4,))
        assert set(out) == {("rip", 4), ("dbf", 4)}
        for series in out.values():
            assert len(series) > 0

    def test_figure7_delay_series(self):
        out = figure7_delay(TINY, degrees=(4,))
        for series in out.values():
            assert all(v >= 0 for v in series.values)


class TestProjection:
    """``points=run_sweep(cfg)`` gives every figure the value it computes by
    simulating on its own."""

    CFG = TINY.with_(protocols=("bgp", "bgp3"))

    @pytest.fixture(scope="class")
    def points(self):
        return run_sweep(self.CFG)

    @pytest.mark.parametrize(
        "figure",
        [figure3_drops_no_route, figure4_ttl_expirations, figure6_convergence],
    )
    def test_sweep_tables(self, figure, points):
        def tables(result):  # Figure 6 returns a pair of tables
            return result if isinstance(result, tuple) else (result,)

        projected = tables(figure(self.CFG, points=points))
        for ours, theirs in zip(projected, tables(figure(self.CFG)), strict=True):
            assert ours.title == theirs.title
            assert ours.values == theirs.values
            assert list(ours.points) == list(theirs.points)
            assert all(ours.points[key] is points[key] for key in points)

    @pytest.mark.parametrize("figure", [figure5_throughput, figure7_delay])
    def test_series(self, figure, points):
        projected = figure(self.CFG, degrees=(4, 6), points=points)
        assert projected == figure(self.CFG, degrees=(4, 6))
        assert list(projected) == [(p, d) for p in self.CFG.protocols for d in (4, 6)]

    def test_headline(self, points):
        projected = headline_bgp_vs_bgp3(self.CFG, degree=6, points=points)
        assert projected == headline_bgp_vs_bgp3(self.CFG, degree=6)

    def test_cells_missing_from_points_are_simulated(self, points):
        partial = {key: point for key, point in points.items() if key[1] == 4}
        assert (
            figure3_drops_no_route(self.CFG, points=partial).values
            == figure3_drops_no_route(self.CFG, points=points).values
        )


class TestHeadlineAndAblations:
    def test_headline_reports_both_protocols_and_ratio(self):
        out = headline_bgp_vs_bgp3(TINY.with_(protocols=("bgp", "bgp3")), degree=4)
        assert set(out) == {"bgp", "bgp3", "ratio"}

    def test_mrai_ablation_uses_pd_variants(self):
        table = ablation_mrai_granularity(TINY, degree=4)
        assert set(p for p, _ in table.values) == {"bgp", "bgp-pd", "bgp3", "bgp3-pd"}

    def test_cache_ablation_compares_rip_dbf(self):
        table = ablation_alternate_cache(TINY)
        for degree in TINY.degrees:
            assert table.value("dbf", degree) <= table.value("rip", degree)

    def test_load_sensitivity_reports_causes(self):
        out = ablation_load_sensitivity(TINY, degree=4, rates=(10.0, 150.0))
        assert set(out) == {10.0, 150.0}
        assert set(out[10.0]) == {"ttl", "queue", "no_route"}

    def test_linkstate_extension_includes_spf(self):
        table = extension_linkstate(TINY)
        assert ("spf", 4) in table.values
