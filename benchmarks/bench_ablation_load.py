"""Ablation: offered load vs loss cause during convergence loops.

DESIGN.md reconstructs the paper's sender rate from the constraint that
transient loops must not congest the 1 Mbps links (the paper attributes all
convergence losses to NO_ROUTE and TTL expiry).  This bench makes the
constraint measurable: as the rate grows past ~2*capacity/TTL, loop losses
shift from TTL expiry into queue overflow.
"""

from __future__ import annotations

from repro.experiments.figures import ROWS, evaluate

from conftest import run_once

def test_ablation_load_sensitivity(benchmark, config):
    # Loop formation depends on the failure layout, not the data rate; use a
    # seed window where the degree-5 MRAI loop reproduces so every rate is
    # measured against the same transient loop.
    tables = run_once(benchmark, evaluate, ROWS["abl3"], config.with_(runs=3, seed=4))
    out = {
        rate: {
            cause: table.value("bgp", rate)
            for cause, table in zip(("ttl", "queue", "no_route"), tables)
        }
        for rate in tables[0].degrees
    }
    print("\nLoad sensitivity (BGP, degree 5): drops by cause")
    print(f"  {'rate(pps)':>10} {'ttl':>8} {'queue':>8} {'no_route':>9}")
    for rate, row in out.items():
        print(
            f"  {rate:>10.0f} {row['ttl']:>8.1f} {row['queue']:>8.1f} {row['no_route']:>9.1f}"
        )
    # At paper-scale load, queue overflow is negligible.
    assert out[20.0]["queue"] < out[20.0]["ttl"] + out[20.0]["no_route"] + 5
    # Heavy load pushes losses into queue overflow.
    assert out[150.0]["queue"] > out[20.0]["queue"]
