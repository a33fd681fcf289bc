"""Extension (paper §6): multiple flows with overlapping failures.

Three concurrent sender/receiver pairs, two staggered on-path failures whose
convergence periods overlap.  Aggregate and worst-flow delivery ratios per
protocol.
"""

from __future__ import annotations

from repro.experiments.figures import ROWS, evaluate

from conftest import run_once


def test_extension_multiflow(benchmark, config):
    delivery, worst, drops = run_once(
        benchmark, evaluate, ROWS["ext2"], config.with_(runs=3)
    )
    print("\nMulti-flow extension (3 flows, 2 overlapping failures, degree 4)")
    print(f"  {'protocol':>9} {'delivery':>9} {'worst flow':>11} {'drops':>7}")
    for protocol in delivery.protocols:
        print(
            f"  {protocol:>9} {delivery.value(protocol, 4):>9.3f} "
            f"{worst.value(protocol, 4):>11.3f} {drops.value(protocol, 4):>7.1f}"
        )
    assert delivery.value("dbf", 4) >= delivery.value("rip", 4)
    for key, ratio in delivery.values.items():
        assert 0.0 <= worst.values[key] <= ratio + 1e-9
