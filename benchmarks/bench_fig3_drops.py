"""Figure 3: packet drops due to no route vs node degree.

Expected shape (paper Observation 1): drops fall as degree rises; at degree
>= 6 DBF/BGP/BGP-3 drop virtually nothing while RIP improves only slightly.
"""

from __future__ import annotations

from repro.experiments.figures import ROWS, evaluate
from repro.experiments.report import format_row

from conftest import run_once


def test_figure3_drops_no_route(benchmark, config):
    row = ROWS["3"]
    (table,) = run_once(benchmark, evaluate, row, config)
    print("\n" + format_row(row, (table,), config))
    d_lo, d_hi = min(config.degrees), max(config.degrees)
    # RIP is the worst protocol at every degree and never gets near zero.
    for degree in config.degrees:
        assert table.value("rip", degree) >= table.value("dbf", degree)
    assert table.value("rip", d_hi) > 20
    # Alternate-path protocols reach ~zero drops at the highest degree.
    for protocol in ("dbf", "bgp", "bgp3"):
        assert table.value(protocol, d_hi) < 5
