"""Ablation: MRAI granularity (paper §5.2 speculation).

The paper notes its loop results "could have been different had the MRAI
timer been implemented on a per (neighbor, destination) basis".  This bench
measures exactly that: per-neighbor vs per-(neighbor, destination) MRAI.
"""

from __future__ import annotations

from repro.experiments.figures import ROWS, evaluate
from repro.experiments.report import format_row

from conftest import run_once


def test_ablation_mrai_granularity(benchmark, config):
    row, config = ROWS["abl1"], config.with_(runs=4)
    (table,) = run_once(benchmark, evaluate, row, config)  # degree 5
    print("\n" + format_row(row, (table,), config))
    # Finer MRAI granularity must not make looping worse; typically it
    # shortens loop lifetime because corrections for other destinations are
    # no longer stuck behind an unrelated announcement's timer.
    assert table.value("bgp-pd", 5) <= table.value("bgp", 5)
    assert table.value("bgp3-pd", 5) <= max(table.value("bgp3", 5), 1.0)
