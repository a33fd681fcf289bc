"""Extension: the experiment on connected random regular graphs.

Cross-checks that the mesh results are not lattice artifacts: on random
topologies of the same size, the alternate-path protocols still reach ~zero
drops once the degree is rich, while RIP remains periodic-timer-bound.
"""

from __future__ import annotations

from repro.experiments.figures import ROWS, evaluate
from repro.experiments.report import format_row

from conftest import run_once


def test_extension_random_topology(benchmark, config):
    row, config = ROWS["ext4"], config.with_(runs=3)
    (table,) = run_once(benchmark, evaluate, row, config)  # degrees 4 and 6
    print("\n" + format_row(row, (table,), config))
    for degree in (4, 6):
        assert table.value("dbf", degree) <= table.value("rip", degree)
    assert table.value("dbf", 6) < 10
