#!/usr/bin/env python3
"""Quickstart: one convergence experiment, end to end.

Builds the paper's 7x7 degree-4 mesh, attaches a sender (first row) and a
receiver (last row), warm-starts DBF everywhere, streams 20 pkt/s, fails one
link on the active shortest path, and reports what happened to the packets.

Run:  python examples/quickstart.py
"""

from repro import ExperimentConfig, run_scenario


def main() -> None:
    config = ExperimentConfig.quick()
    result = run_scenario("dbf", degree=4, seed=1, config=config)

    print("Scenario")
    print(f"  topology            7x7 regular mesh, interior degree 4")
    print(f"  sender -> receiver  host {result.sender} -> host {result.receiver}")
    print(f"  pre-failure path    {' -> '.join(map(str, result.initial_path))}")
    print(f"  failed link         {result.failed_link} (at t=0, detected +50 ms)")
    if result.expected_final_path:
        print(f"  expected new path   {' -> '.join(map(str, result.expected_final_path))}")

    print("\nPacket delivery")
    print(f"  sent                {result.sent}")
    print(f"  delivered           {result.delivered}  ({result.delivery_ratio:.1%})")
    print(f"  drops: no route     {result.drops_no_route}")
    print(f"  drops: TTL expired  {result.drops_ttl}")
    print(f"  drops: on dead link {result.drops_link_down}")
    print(f"  drops: queue        {result.drops_queue}")

    print("\nConvergence (seconds after failure detection)")
    print(f"  forwarding path     {result.forwarding_convergence:.3f}")
    print(f"  network routing     {result.routing_convergence:.3f}")
    print(f"  settled on expected {result.converged_to_expected}")
    print(f"  transient paths     {result.transient_path_count}")


if __name__ == "__main__":
    main()
