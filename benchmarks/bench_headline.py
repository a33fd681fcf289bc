"""§1 headline: with the same topology and packet rate, BGP drops several
times more packets during convergence than the 3-second-MRAI variant."""

from __future__ import annotations

from repro.experiments.figures import ROWS, evaluate, headline

from conftest import run_once


def test_headline_bgp_vs_bgp3(benchmark, config):
    config = config.with_(runs=4)
    assert 5 in config.degrees  # the row runs the paper's degree when swept
    (table,) = run_once(benchmark, evaluate, ROWS["head"], config)
    out = headline(table)
    print(
        f"\nHeadline (degree 5): BGP dropped {out['bgp']:.0f} packets, "
        f"BGP-3 dropped {out['bgp3']:.0f} (ratio {out['ratio']:.1f}x)"
    )
    assert out["bgp"] > out["bgp3"]
    assert out["ratio"] > 2.0
