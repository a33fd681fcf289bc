"""The figure catalogue: every row at a micro configuration.

``test_row`` runs each row of ``ROWS`` (5x5 mesh, one degree, one run: the
``micro`` fixture) and checks that it gives one table per panel holding
every cell it declares; the classes below check what each paper figure, the
headline and the first ablations promise, on the same evaluations.
``tests/experiments/test_extension_figures.py`` does the same for the
remaining ablations and extensions.
"""

from __future__ import annotations

import re
from dataclasses import replace

import pytest

from repro.cli import build_parser
from repro.experiments import runner
from repro.experiments.figures import ROWS, evaluate, headline
from repro.experiments.report import format_row
from repro.experiments.runner import run_sweep


@pytest.mark.parametrize("row_id", list(ROWS))
def test_row(row_id, micro, micro_tables):
    row, tables = ROWS[row_id], micro_tables(row_id)
    assert row.id == row_id
    assert [t.title for t in tables] == [p.title for p in row.panels]
    for table in tables:
        assert set(table.values) == {(p, k) for p in table.protocols for k in table.degrees}
    assert format_row(row, tables, micro).startswith(row.panels[0].title)


def test_figure_command_offers_exactly_the_catalogue_ids():
    figure = build_parser()._subparsers._group_actions[0].choices["figure"]
    (row_id,) = [a for a in figure._actions if a.dest == "id"]
    assert tuple(row_id.choices) == tuple(ROWS)


class TestFigure2:
    def test_reports_structure_per_degree(self, micro_tables):
        (mesh,) = micro_tables("2")
        assert mesh.degrees == (4, 5, 6)
        lines = list(mesh.values.values())
        assert all("25 nodes" in line for line in lines)
        links = [int(re.search(r"(\d+) links", line)[1]) for line in lines]
        assert links[0] < links[1] < links[2]


class TestSweepFigures:
    def test_figure3_shape(self, micro, micro_tables):
        (table,) = micro_tables("3")
        assert set(table.values) == {(p, d) for p in micro.protocols for d in micro.degrees}
        assert all(v >= 0 for v in table.values.values())

    def test_figure3_series_accessor(self, micro_tables):
        (table,) = micro_tables("3")
        assert [d for d, _ in table.series("rip")] == [4]

    def test_figure4_shape(self, micro_tables):
        (table,) = micro_tables("4")
        assert all(v >= 0 for v in table.values.values())

    def test_figure6_returns_two_tables(self, micro_tables):
        fwd, rt = micro_tables("6")
        assert "6a" in fwd.title and "6b" in rt.title
        for key in fwd.values:
            assert rt.values[key] >= 0


class TestSeriesFigures:
    def test_figure5_series_cover_requested_grid(self, micro, micro_tables):
        (series,) = micro_tables("5")
        assert list(series.values) == [(p, 4) for p in micro.protocols]
        for s in series.values.values():
            assert len(s) > 0

    def test_figure7_delay_series(self, micro_tables):
        (series,) = micro_tables("7")
        for s in series.values.values():
            assert all(v >= 0 for v in s.values)


@pytest.fixture
def scenario_calls(monkeypatch):
    """The (protocol, degree, seed) of every scenario ``run_point`` simulates."""
    calls = []
    real = runner.run_scenario

    def counted(protocol, degree, seed, *args, **kwargs):
        calls.append((protocol, degree, seed))
        return real(protocol, degree, seed, *args, **kwargs)

    monkeypatch.setattr(runner, "run_scenario", counted)
    return calls


class TestProjection:
    """``points=run_sweep(config)`` gives every row that reads the sweep the
    tables it computes by simulating on its own."""

    @pytest.fixture(scope="class")
    def points(self, micro):
        return run_sweep(micro)

    # Every row that runs ``run_point`` under the config itself at a swept
    # degree, whichever protocols it picks: its cells are the sweep's cells.
    @pytest.mark.parametrize(
        "row_id", ["3", "4", "6", "abl2", "abl5", "ovh", "ext1", "ext5", "ext7"]
    )
    def test_sweep_tables(self, row_id, micro, micro_tables, points):
        assert evaluate(ROWS[row_id], micro, points=points) == micro_tables(row_id)

    @pytest.mark.parametrize("row_id", ["5", "7"])
    def test_series(self, row_id, micro, micro_tables, points):
        assert evaluate(ROWS[row_id], micro, points=points) == micro_tables(row_id)

    def test_headline(self, micro, micro_tables, points, scenario_calls):
        simulated = micro_tables("head")
        scenario_calls.clear()
        assert evaluate(ROWS["head"], micro, points=points) == simulated
        assert scenario_calls == []

    def test_cells_missing_from_points_are_simulated(self, micro, points, scenario_calls):
        partial = {key: point for key, point in points.items() if key[0] != "dbf"}
        assert evaluate(ROWS["3"], micro, points=partial) == evaluate(
            ROWS["3"], micro, points=points
        )
        assert scenario_calls == [("dbf", 4, micro.seed)]

    def test_a_delta_beyond_protocols_and_degrees_is_simulated(
        self, micro, points, scenario_calls
    ):
        evaluate(replace(ROWS["3"], delta={"rate_pps": 10.0}), micro, points=points)
        assert scenario_calls == [(p, 4, micro.seed) for p in micro.protocols]


class TestHeadlineAndAblations:
    def test_headline_reports_both_protocols_and_ratio(self, micro_tables):
        (table,) = micro_tables("head")
        assert table.degrees == (4,)  # degree 5 is not swept: the richest one is
        assert set(headline(table)) == {"bgp", "bgp3", "ratio"}

    def test_mrai_ablation_uses_pd_variants(self, micro_tables):
        (table,) = micro_tables("abl1")
        assert set(p for p, _ in table.values) == {"bgp", "bgp-pd", "bgp3", "bgp3-pd"}
        assert table.degrees == (5,)

    def test_cache_ablation_compares_rip_dbf(self, micro_tables):
        (table,) = micro_tables("abl2")
        for degree in table.degrees:
            assert table.value("dbf", degree) <= table.value("rip", degree)

    def test_load_sensitivity_reports_causes(self, micro_tables):
        ttl, queue, no_route = micro_tables("abl3")
        assert ttl.degrees == (10.0, 20.0, 60.0, 150.0)
        assert ["TTL" in ttl.title, "queue" in queue.title, "no route" in no_route.title] == [
            True, True, True,
        ]

    def test_linkstate_extension_includes_spf(self, micro_tables):
        (table,) = micro_tables("ext1")
        assert ("spf", 4) in table.values
