"""Ablation: failure-detection delay sensitivity (paper §5 parameter).

The paper asserts its exact detection-delay value "should have little
impact on the results" because it sits far below every protocol timer.
This bench quantifies that: with an alternate-path protocol on the rich
mesh, post-failure losses track rate x detection_delay (the packets sent
into the dead link before anyone knows), nothing more — so any detection
delay well under the routing timers gives the same picture.
"""

from __future__ import annotations

from repro.experiments.figures import ROWS, evaluate

from conftest import run_once

def test_ablation_detection_delay(benchmark, config):
    config = config.with_(runs=3)
    drops, forwarding = run_once(benchmark, evaluate, ROWS["abl4"], config)
    print("\nDetection delay sensitivity (DBF, degree 6)")
    print(f"  {'delay(s)':>9} {'drops':>7} {'rate*delay':>11} {'fwd conv(s)':>12}")
    for delay in drops.degrees:
        print(
            f"  {delay:>9.3f} {drops.value('dbf', delay):>7.1f} "
            f"{config.rate_pps * delay:>11.1f} {forwarding.value('dbf', delay):>12.3f}"
        )
    # Losses stay within a couple of packets of the physical floor.
    for delay in drops.degrees:
        assert drops.value("dbf", delay) <= config.rate_pps * delay + 3
    # And they do grow once the delay grows (it is the dominant term).
    assert drops.value("dbf", 2.0) > drops.value("dbf", 0.005)
