"""Figure 2: the Baran regular-mesh topology family (degrees 4/5/6)."""

from __future__ import annotations

import re

from repro.experiments.figures import ROWS, evaluate
from repro.experiments.report import format_row

from conftest import run_once


def test_figure2_topologies(benchmark, config):
    row, config = ROWS["2"], config.with_(rows=7, cols=7)
    (meshes,) = run_once(benchmark, evaluate, row, config)
    print("\n" + format_row(row, (meshes,), config))
    assert meshes.degrees == (4, 5, 6)
    links = [int(re.search(r"(\d+) links", line)[1]) for line in meshes.values.values()]
    # Richer meshes have strictly more links (the paper's redundancy knob).
    assert links[0] < links[1] < links[2]
