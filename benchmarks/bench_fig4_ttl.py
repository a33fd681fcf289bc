"""Figure 4: TTL expirations during convergence vs node degree.

Expected shape (paper Observation 2): RIP has none anywhere; nobody loops at
degree >= 6; below 6 BGP's per-neighbor MRAI makes its loops live longest.
"""

from __future__ import annotations

from repro.experiments.figures import ROWS, evaluate
from repro.experiments.report import format_row

from conftest import run_once


def test_figure4_ttl_expirations(benchmark, config):
    row = ROWS["4"]
    (table,) = run_once(benchmark, evaluate, row, config)
    print("\n" + format_row(row, (table,), config))
    d_hi = max(config.degrees)
    for degree in config.degrees:
        assert table.value("rip", degree) == 0  # RIP drops instead of looping
    for protocol in config.protocols:
        assert table.value(protocol, d_hi) == 0  # rich meshes do not loop
    # MRAI lengthens loops: across the sparse degrees, BGP's worst case is at
    # least BGP-3's, and with enough seeds the degree-5 loops are visible.
    sparse = [d for d in config.degrees if d < 6]
    if sparse:
        worst_bgp = max(table.value("bgp", d) for d in sparse)
        worst_bgp3 = max(table.value("bgp3", d) for d in sparse)
        assert worst_bgp >= worst_bgp3
    if 5 in config.degrees and config.runs >= 4:
        assert table.value("bgp", 5) > 0
        assert table.value("bgp", 5) > table.value("bgp3", 5)
