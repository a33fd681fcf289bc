"""Extension (paper §6 future work): link-state SPF vs the studied protocols.

SPF floods failure information with no damping timers and computes routes
from global topology knowledge, so its convergence-period losses should sit
at or below DBF's.
"""

from __future__ import annotations

from repro.experiments.figures import ROWS, evaluate
from repro.experiments.report import format_row

from conftest import run_once


def test_extension_linkstate(benchmark, config):
    row = ROWS["ext1"]
    (table,) = run_once(benchmark, evaluate, row, config)
    print("\n" + format_row(row, (table,), config))
    for degree in config.degrees:
        assert table.value("spf", degree) <= table.value("rip", degree)
    d_hi = max(config.degrees)
    assert table.value("spf", d_hi) < 5
