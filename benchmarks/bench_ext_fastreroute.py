"""Extension: IGP fast reroute (paper related work [1]/[27]).

SPF with a realistic 2 s computation throttle loses packets on the stale
route until recomputation; precomputed Loop-Free Alternates swing the FIB
at failure detection instead.  LFA coverage depends on connectivity: on the
tie-heavy degree-4 grid many nodes have no loop-free neighbor, while at
degree 6 protection is total — the paper's redundancy theme, replayed at the
data plane.
"""

from __future__ import annotations

from repro.experiments.figures import ROWS, evaluate

from conftest import run_once


def test_extension_fast_reroute(benchmark, config):
    (stale,) = run_once(benchmark, evaluate, ROWS["ext6"], config.with_(runs=4))
    out = stale.values
    print("\nFast reroute extension: stale-route drops per failure")
    print(f"  {'protocol':>9} {'degree 4':>9} {'degree 6':>9}")
    for protocol in ("spf", "spf-slow", "spf-lfa"):
        print(
            f"  {protocol:>9} {out[(protocol, 4)]:>9.1f} {out[(protocol, 6)]:>9.1f}"
        )
    # Instant SPF barely loses anything; the throttle opens a gap; LFA closes
    # it where a loop-free alternate exists (fully at degree 6).
    for degree in (4, 6):
        assert out[("spf", degree)] <= 3
        assert out[("spf-lfa", degree)] <= out[("spf-slow", degree)]
    assert out[("spf-lfa", 6)] <= 3
