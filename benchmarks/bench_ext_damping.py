"""Extension: route flap damping during convergence (paper's [4]/[15]).

RFC 2439 damping reads convergence-period path exploration as flapping.  At
this experiment's timescale (scaled half-life, single failure) the visible
effect is loop suppression — the flapping stale alternates that form the
degree-5 MRAI loops get damped, cutting TTL deaths.  The *harmful* side Mao
et al. report (good routes suppressed for many minutes) requires production
15-minute half-lives that dwarf the 70 s observation window; EXPERIMENTS.md
discusses the regime split.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.figures import ROWS, evaluate

from conftest import run_once


def test_extension_flap_damping(benchmark, config):
    row = ROWS["ext5"]
    at_degree_5 = replace(row, delta={**row.delta, "degrees": (5,)})
    delivery, drops, convergence = run_once(
        benchmark, evaluate, at_degree_5, config.with_(runs=4)
    )
    print("\nFlap damping extension (BGP-3, degree 5 — loop regime)")
    print(f"  {'protocol':>10} {'delivery':>9} {'drops':>7} {'conv(s)':>8}")
    for protocol in delivery.protocols:
        print(
            f"  {protocol:>10} {delivery.value(protocol, 5):>9.3f} "
            f"{drops.value(protocol, 5):>7.1f} {convergence.value(protocol, 5):>8.2f}"
        )
    # Damping a single-failure convergence event is at worst neutral and at
    # best loop-suppressing in this regime.
    assert delivery.value("bgp3-rfd", 5) >= delivery.value("bgp3", 5) - 1e-9
