#!/usr/bin/env python3
"""Transient forwarding loops under the microscope (paper §5.2 and §5.5).

Runs BGP on the degree-5 mesh with per-packet hop recording until a seed
produces a loop on the data path, then dissects it: the loop cycle, how many
packets died of TTL expiry inside it, how many escaped, and how inflated the
escapees' delays were — the mechanism behind Figure 7's delay oscillation.

Run:  python examples/loop_analysis.py
"""

from repro import ExperimentConfig, run_scenario


def main() -> None:
    config = ExperimentConfig.quick().with_(
        record_paths=True, post_fail_window=60.0
    )

    print("Hunting for a seed whose failure creates a forwarding loop ...")
    for seed in range(1, 30):
        result = run_scenario("bgp", degree=5, seed=seed, config=config)
        report = result.loop_report
        looped = result.drops_ttl > 0 or (report and report.escaped_loop > 0)
        if not looped:
            continue

        print(f"\nseed {seed}: loop found")
        print(f"  failed link            {result.failed_link}")
        print(f"  pre-failure path       {' -> '.join(map(str, result.initial_path))}")
        print(f"  packets sent           {result.sent}")
        print(f"  delivered              {result.delivered}")
        print(f"  died of TTL expiry     {result.drops_ttl}")
        if report:
            print(f"  escaped the loop       {report.escaped_loop}")
            if report.loop_cycles:
                cycle = report.loop_cycles[0]
                print(f"  loop cycle             {' -> '.join(map(str, cycle))}")
            print(f"  max extra hops         {report.max_extra_hops}")
        print(f"  network convergence    {result.routing_convergence:.1f} s")
        print(
            "\nWhy it persists: both loop members re-selected stale alternate\n"
            "paths from their Adj-RIB-in, and the announcements that would\n"
            "correct them are pinned behind per-neighbor MRAI timers (~30 s\n"
            "for standard BGP).  Compare with bgp3 (MRAI ~3 s):"
        )
        fast = run_scenario("bgp3", degree=5, seed=seed, config=config)
        print(
            f"  bgp3 same seed: TTL drops {fast.drops_ttl}, "
            f"convergence {fast.routing_convergence:.1f} s"
        )
        return
    print("No loop observed in seeds 1-29 (try a longer window).")


if __name__ == "__main__":
    main()
