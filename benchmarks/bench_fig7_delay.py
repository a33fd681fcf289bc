"""Figure 7: instantaneous packet delay vs time (degrees 4, 5, 6).

Expected shape (paper Observation 5): packets delivered during convergence
ride longer transient paths, so per-second mean delay rises above the steady
state; loop-escaping packets produce the largest spikes (degree 5).
"""

from __future__ import annotations

from repro.experiments.figures import ROWS, evaluate
from repro.experiments.report import format_row

from conftest import run_once


def test_figure7_delay(benchmark, config):
    row = ROWS["7"]
    (table,) = run_once(benchmark, evaluate, row, config)
    print("\n" + format_row(row, (table,), config))
    series = table.values
    # Delay during convergence exceeds the steady state for at least one
    # protocol/degree (sub-optimal transient paths).
    inflated = 0
    for key, s in series.items():
        steady = s.window(-5.0, 0.0).mean_value()
        post_values = [v for v in s.window(0.0, 30.0).values if v > 0]
        if post_values and max(post_values) > steady * 1.2:
            inflated += 1
    assert inflated >= 1
