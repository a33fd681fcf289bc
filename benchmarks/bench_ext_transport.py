"""Extension (paper §6): end-to-end reliable transport through convergence.

A window/timeout transfer spans the failure; the stall penalty versus a
failure-free baseline translates the paper's IP-layer delivery gap into
end-to-end terms (RIP's ~periodic-interval gap becomes a tens-of-seconds
stall; the alternate-path protocols cost ~a retransmission timeout).
"""

from __future__ import annotations

from repro.experiments.figures import ROWS, evaluate

from conftest import run_once


def test_extension_transport(benchmark, config):
    stall, retx = run_once(benchmark, evaluate, ROWS["ext3"], config.with_(runs=2))
    print("\nTransport extension (8000-segment transfer, failure mid-stream)")
    print(f"  {'protocol':>9} {'stall (s)':>10} {'retx':>7}")
    for protocol in stall.protocols:
        print(
            f"  {protocol:>9} {stall.value(protocol, 4):>10.2f} "
            f"{retx.value(protocol, 4):>7.1f}"
        )
    assert stall.value("rip", 4) >= stall.value("dbf", 4)
    assert stall.value("dbf", 4) < 5.0
