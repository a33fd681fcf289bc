"""Golden-value pin for the full metric pipeline.

These exact numbers were captured from a fixed-seed scenario *before* the
hot-path refactor (tuple heap, guarded trace dispatch, neighbor dispatch
tables) and must reproduce bit-for-bit after it: the refactor's contract is
that it changes how fast events and traces move, never which events happen
or what the collectors compute.

If a deliberate behavior change invalidates these, re-capture with::

    PYTHONPATH=src python -c "
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.scenario import run_scenario
    cfg = ExperimentConfig.quick().with_(rows=5, cols=5, runs=1,
                                         post_fail_window=30.0,
                                         record_paths=True)
    print(run_scenario('dbf', 4, 7, cfg))"
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import run_scenario

GOLDEN_CONFIG = ExperimentConfig.quick().with_(
    rows=5, cols=5, runs=1, post_fail_window=30.0, record_paths=True
)

# (protocol, expectations) at degree=4, seed=7.  Floats are exact: the run
# is deterministic, so == is the right comparison, not approx.
#
# The rip/seed=11 point (GOLDEN_RIP below) pins a qualitatively different
# regime: a slow periodic-update recovery (~14.6 s routing convergence,
# 162 NO_ROUTE drops, and a final path that differs from the tracker's
# expected shortest path), so the pipeline is pinned on a hard scenario,
# not just a fast clean one.
GOLDEN = {
    "dbf": dict(
        sent=701,
        delivered=699,
        drops_link_down=1,
        drops_no_route=0,
        drops_ttl=0,
        routing_convergence=0.004111999999999227,
        forwarding_convergence=0.0020559999999996137,
        messages=196,
        withdrawals=0,
        transient_path_count=2,
        converged_to_expected=True,
        delay_mean=0.01209988814243378,
    ),
    "bgp3": dict(
        sent=701,
        delivered=699,
        drops_link_down=1,
        drops_no_route=0,
        drops_ttl=0,
        routing_convergence=0.004655999999998883,
        forwarding_convergence=0.0014159999999989736,
        messages=168,
        withdrawals=2,
        transient_path_count=2,
        converged_to_expected=True,
        delay_mean=0.01209600000000291,
    ),
}


# Second golden point: (rip, degree=4, seed=11) under the same config.
GOLDEN_RIP = dict(
    sent=701,
    delivered=537,
    drops_link_down=1,
    drops_no_route=162,
    drops_ttl=0,
    routing_convergence=14.581669885375874,
    forwarding_convergence=8.064400837817757,
    messages=388,
    withdrawals=0,
    transient_path_count=5,
    converged_to_expected=False,
    delay_mean=0.01050632830905279,
)

_PINNED_FIELDS = (
    "sent",
    "delivered",
    "drops_link_down",
    "drops_no_route",
    "drops_ttl",
    "routing_convergence",
    "forwarding_convergence",
    "messages",
    "withdrawals",
    "transient_path_count",
    "converged_to_expected",
)


def _assert_golden(result, expected):
    for field in _PINNED_FIELDS:
        assert getattr(result, field) == expected[field], field
    assert result.delay is not None and len(result.delay.values) > 0
    delay_mean = sum(result.delay.values) / len(result.delay.values)
    assert delay_mean == expected["delay_mean"]


@pytest.mark.parametrize("protocol", sorted(GOLDEN))
def test_fixed_seed_scenario_reproduces_golden_values(protocol):
    result = run_scenario(protocol, 4, 7, GOLDEN_CONFIG)
    assert result.seed == 7
    _assert_golden(result, GOLDEN[protocol])


def test_rip_slow_recovery_scenario_reproduces_golden_values():
    result = run_scenario("rip", 4, 11, GOLDEN_CONFIG)
    assert result.seed == 11
    _assert_golden(result, GOLDEN_RIP)
