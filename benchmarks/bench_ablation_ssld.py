"""Ablation: sender-side vs receiver-side loop detection in BGP.

The paper's implementation discards looping paths at the receiver; SSLD
filters them at the sender.  Routes chosen are identical, but SSLD saves the
messages the receiver would discard.
"""

from __future__ import annotations

from repro.experiments.figures import ROWS, evaluate

from conftest import run_once


def test_ablation_ssld(benchmark, config):
    messages, no_route, ttl, convergence = run_once(
        benchmark, evaluate, ROWS["abl5"], config.with_(runs=4)
    )
    print("\nSSLD ablation (BGP-3, degree 4)")
    print(f"  {'protocol':>10} {'messages':>9} {'drops':>7} {'conv(s)':>8}")
    for protocol in messages.protocols:
        print(
            f"  {protocol:>10} {messages.value(protocol, 4):>9.1f} "
            f"{no_route.value(protocol, 4) + ttl.value(protocol, 4):>7.1f} "
            f"{convergence.value(protocol, 4):>8.2f}"
        )
    assert messages.value("bgp3-ssld", 4) <= messages.value("bgp3", 4)
