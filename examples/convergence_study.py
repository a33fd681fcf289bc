#!/usr/bin/env python3
"""The paper's core result at example scale: Figures 3 and 4.

Sweeps node degree 3-6 for RIP, DBF, BGP and BGP-3 (a few seeds each) and
prints the two headline tables: packet drops due to no route, and TTL
expirations caused by transient forwarding loops.

Expected shape (paper Observations 1-2):
  * drops fall as the mesh gets denser; at degree 6 the alternate-path
    protocols (DBF/BGP/BGP-3) lose ~nothing while RIP barely improves;
  * RIP never loops (it drops instead); at degree 5 BGP's 30 s MRAI makes
    its loops live an order of magnitude longer than BGP-3's.

Run:  python examples/convergence_study.py   (takes a minute or two)
"""

from repro import ExperimentConfig
from repro.experiments import ROWS, evaluate, format_row, run_sweep


def main() -> None:
    # 5 seeds: the degree-5 loop layouts (the Figure 4 signal) need a few
    # failure placements to show up.
    config = ExperimentConfig.quick().with_(runs=5, post_fail_window=60.0)

    print("Running degree sweep (4 protocols x 4 degrees x 5 seeds) ...\n")
    points = run_sweep(config)  # both figures are views of the same runs
    (drops,) = evaluate(ROWS["3"], config, points)
    print(format_row(ROWS["3"], (drops,), config))

    print()
    (ttl,) = evaluate(ROWS["4"], config, points)
    print(format_row(ROWS["4"], (ttl,), config))

    print("\nReading the tables:")
    d_hi = max(config.degrees)
    rip_hi = drops.value("rip", d_hi)
    dbf_hi = drops.value("dbf", d_hi)
    print(
        f"  at degree {d_hi}: RIP still drops ~{rip_hi:.0f} packets per failure, "
        f"DBF ~{dbf_hi:.0f} — the alternate-path cache is the decisive design choice."
    )
    bgp5, bgp35 = ttl.value("bgp", 5), ttl.value("bgp3", 5)
    if bgp5 or bgp35:
        print(
            f"  at degree 5: BGP kills ~{bgp5:.0f} packets in MRAI-lengthened loops "
            f"vs ~{bgp35:.0f} for BGP-3."
        )


if __name__ == "__main__":
    main()
