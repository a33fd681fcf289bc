"""Extension: larger network sizes (paper §6's first future-work step).

Sweeps the mesh side length at fixed degree 4.  RIP's convergence loss is
clocked by its periodic interval, not by network size; the alternate-path
protocol's delivery stays high at every size because recovery is local.
"""

from __future__ import annotations

from repro.experiments.figures import ROWS, evaluate

from conftest import run_once

def test_extension_scale(benchmark, config):
    drops, delivery, convergence = run_once(
        benchmark, evaluate, ROWS["ext8"], config.with_(runs=2)
    )
    print("\nScale extension (degree 4): mesh size sweep")
    print(f"  {'proto':>6} {'nodes':>6} {'drops':>7} {'delivery':>9} {'conv(s)':>8}")
    for key in sorted(drops.values):
        print(
            f"  {key[0]:>6} {key[1]:>6} {drops.values[key]:>7.1f} "
            f"{delivery.values[key]:>9.3f} {convergence.values[key]:>8.2f}"
        )
    for n in drops.degrees:  # 5x5, 7x7 and 10x10 meshes
        # RIP always the worst; alternate-path protocols deliver >95% at any size.
        assert drops.value("rip", n) >= drops.value("dbf", n)
        assert delivery.value("dbf", n) > 0.9
