"""Tests for the ASCII mesh renderer."""

from __future__ import annotations

import pytest

from repro.topology.mesh import regular_mesh
from repro.topology.render import render_mesh


class TestRenderMesh:
    def test_line_count(self):
        text = render_mesh(regular_mesh(5, 5, 4), 5, 5)
        # 5 node rows + 4 inter-rows.
        assert len(text.splitlines()) == 9

    def test_all_node_ids_present(self):
        text = render_mesh(regular_mesh(4, 4, 4), 4, 4)
        for node in range(16):
            assert f"{node:02d}" in text

    def test_horizontal_glyph_count_matches_links(self):
        topo = regular_mesh(4, 4, 4)
        text = render_mesh(topo, 4, 4)
        horizontals = sum(1 for (a, b) in topo.links if abs(a - b) == 1)
        assert text.count("--") == horizontals

    def test_vertical_glyph_count_matches_links(self):
        topo = regular_mesh(4, 4, 4)
        text = render_mesh(topo, 4, 4)
        verticals = sum(1 for (a, b) in topo.links if abs(a - b) == 4)
        assert text.count("|") == verticals

    def test_degree3_drops_some_verticals(self):
        full = render_mesh(regular_mesh(5, 5, 4), 5, 5).count("|")
        brick = render_mesh(regular_mesh(5, 5, 3), 5, 5).count("|")
        assert brick < full

    def test_degree6_draws_diagonals(self):
        text = render_mesh(regular_mesh(4, 4, 6), 4, 4)
        assert "\\" in text
        assert "/" not in text  # degree 6 has only main diagonals

    def test_degree8_draws_crossings(self):
        text = render_mesh(regular_mesh(4, 4, 8), 4, 4)
        assert "X" in text
