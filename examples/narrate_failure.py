#!/usr/bin/env python3
"""Narrate one convergence event, the way the paper reads its trace files.

Builds a small mesh, warm-starts a protocol of your choice, fails a link on
the live path, and prints the causal timeline toward the flow's
destination: the failure, each router's FIB change with the message or
link event that caused it, and the forwarding path those changes made
(including transient loops).

Run:  python examples/narrate_failure.py [protocol] [degree] [seed]
      e.g. python examples/narrate_failure.py bgp 5 4     # an MRAI loop
"""

import sys

from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import ScenarioRun
from repro.obs.flight import FlightRecorder, format_causal_timeline


def main() -> None:
    protocol = sys.argv[1] if len(sys.argv) > 1 else "dbf"
    degree = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 1

    config = ExperimentConfig.quick().with_(post_fail_window=60.0)
    # The shared run core lays out the paper's mesh experiment; with no data
    # flow and a flight recorder, what is left is the routing story.
    recorder = FlightRecorder()
    run = ScenarioRun(protocol, degree, seed, config, flows=(), recorder=recorder)
    layout = run.layout
    sender, receiver = layout.sender, layout.receiver

    print(f"protocol={protocol} degree={degree} seed={seed}")
    print(
        f"flow: host {sender} (router {layout.pre_path[1]}) -> "
        f"host {receiver} (router {layout.pre_path[-2]})"
    )
    print(f"failing link {layout.failed} at t={run.fail_at} (detected +50 ms)")

    try:
        run.execute()
    finally:
        run.close()  # the recorder keeps its records; the network is freed
    timeline = recorder.timeline(run.fail_at - 0.1, receiver, sender)
    print(f"\nConvergence timeline (t=0 is the failure; FIB changes are for "
          f"destination {receiver} only):\n")
    print(format_causal_timeline(timeline, origin=run.fail_at))


if __name__ == "__main__":
    main()
