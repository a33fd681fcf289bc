"""Ablation: the alternate-path cache (paper §4.1's decisive design factor).

RIP and DBF differ by exactly one design choice — whether a router keeps the
latest vector from every neighbor.  The drop gap between them isolates the
value of alternate-path information.
"""

from __future__ import annotations

from repro.experiments.figures import ROWS, evaluate
from repro.experiments.report import format_row

from conftest import run_once


def test_ablation_alternate_cache(benchmark, config):
    row = ROWS["abl2"]
    (table,) = run_once(benchmark, evaluate, row, config)
    print("\n" + format_row(row, (table,), config))
    for degree in config.degrees:
        assert table.value("dbf", degree) <= table.value("rip", degree)
    # The cache's value grows with connectivity: by the highest degree DBF is
    # lossless while RIP still waits on periodic updates.
    d_hi = max(config.degrees)
    assert table.value("dbf", d_hi) < 5
    assert table.value("rip", d_hi) > 20
