"""Figure 6: forwarding-path (a) and network routing (b) convergence times.

Expected shape (paper Observation 4): BGP-3 converges much faster than BGP;
convergence stays above zero at high degree even though drops are ~zero —
convergence time and packet delivery decouple.
"""

from __future__ import annotations

from repro.experiments.figures import ROWS, evaluate
from repro.experiments.report import format_row

from conftest import run_once


def test_figure6_convergence(benchmark, config):
    row = ROWS["6"]
    fwd, rt = run_once(benchmark, evaluate, row, config)
    print("\n" + format_row(row, (fwd, rt), config))
    for degree in config.degrees:
        assert rt.value("bgp3", degree) < rt.value("bgp", degree)
        # Forwarding-path convergence never exceeds network-wide convergence.
        for protocol in config.protocols:
            assert fwd.value(protocol, degree) <= rt.value(protocol, degree) + 1e-9
    d_hi = max(config.degrees)
    assert rt.value("bgp", d_hi) > 1.0  # still converging while delivery is fine
