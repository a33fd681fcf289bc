#!/usr/bin/env python3
"""The paper's future-work extension: add a link-state protocol (SPF).

The paper compares three distance/path-vector protocols and asks (§6) how a
link-state protocol would fare.  SPF floods failure LSAs with no damping
timers and recomputes shortest paths from global knowledge — so it both
switches instantly (like DBF) and propagates failure news fastest.

This example sweeps degree 3-6 once and prints the EXT1 catalogue row
(drops) and Figure 6's convergence times for SPF next to the paper's
protocols.

Run:  python examples/linkstate_extension.py
"""

from repro import ExperimentConfig
from repro.experiments import ROWS, evaluate, format_row, run_sweep


def main() -> None:
    ext1 = ROWS["ext1"]
    config = ExperimentConfig.quick().with_(
        runs=3, post_fail_window=60.0, **ext1.delta
    )
    # One sweep of the extension's protocols: EXT1 reads its drops and
    # Figure 6 its convergence times off the same runs.
    points = run_sweep(config)
    print(format_row(ext1, evaluate(ext1, config, points), config))
    print()
    print(format_row(ROWS["6"], evaluate(ROWS["6"], config, points), config))
    print(
        "\nSPF combines DBF-like instant switch-over with the fastest failure\n"
        "propagation (no damping timers), at the cost of flooding every\n"
        "topology change to every router."
    )


if __name__ == "__main__":
    main()
