"""Figure 5: instantaneous throughput vs time (degrees 3, 4, 6).

Expected shape (paper Observation 3): a dip at the failure; RIP recovers on
its ~30 s periodic cycle, DBF within seconds, BGP around its MRAI; at degree
6 the dip disappears for everything but RIP.
"""

from __future__ import annotations

from repro.experiments.figures import ROWS, evaluate
from repro.experiments.report import format_row

from conftest import run_once


def test_figure5_throughput(benchmark, config):
    row = ROWS["5"]
    (table,) = run_once(benchmark, evaluate, row, config)
    print("\n" + format_row(row, (table,), config))
    series, degrees = table.values, table.degrees
    rate = config.rate_pps
    lo = min(degrees)
    # Sparse RIP: deep dip, then recovery by the end of the window.
    rip = series[("rip", lo)]
    assert rip.window(0.0, 5.0).min_value() < 0.5 * rate
    assert rip.window(45.0, 55.0).mean_value() > 0.7 * rate
    if 6 in degrees:
        for protocol in ("dbf", "bgp3"):
            post = series[(protocol, 6)].window(0.0, 20.0)
            assert post.mean_value() > 0.85 * rate
