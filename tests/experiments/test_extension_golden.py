"""Fixed-seed golden tuples for the extension runners (paper §6).

The shape and determinism tests in ``test_extensions.py``/``test_repair.py``
/``test_node_failure.py`` would not notice a drifted RNG draw or a reordered
engine event; these pins do.  The values were recorded before the runners
were rebuilt on the shared run core and must hold unchanged on both sides of
that refactor.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.extensions import (
    run_multiflow_scenario,
    run_node_failure_scenario,
    run_random_topology_scenario,
    run_repair_scenario,
    transport_with_baseline,
)

TINY = ExperimentConfig.quick().with_(
    rows=5, cols=5, degrees=(4,), runs=1, post_fail_window=40.0
)
SEED = 3


def _multiflow(protocol):
    r = run_multiflow_scenario(protocol, 4, SEED, TINY)
    flows = [(f.sender, f.receiver, f.sent, f.delivered) for f in r.flows]
    return (r.failed_links, flows, r.drops_no_route, r.drops_ttl)


def _transport(protocol):
    r = transport_with_baseline(protocol, 4, SEED, TINY, total_segments=3000)
    s = r.stats
    return (
        r.failed_link,
        s.completed_at,
        s.retransmissions,
        s.timeouts,
        s.transmissions,
        r.baseline_completion,
    )


def _repair(protocol):
    r = run_repair_scenario(protocol, 4, SEED, TINY)
    return (
        r.failed_link,
        r.sent,
        r.delivered,
        r.drops_total,
        r.restoration_convergence,
        r.back_on_shortest_path,
    )


def _node_failure(protocol):
    r = run_node_failure_scenario(protocol, 4, SEED, TINY)
    return (
        r.failed_node,
        r.sent,
        r.delivered,
        r.drops_no_route,
        r.drops_ttl,
        r.recovered,
    )


def _random_topology(protocol):
    r = run_random_topology_scenario(protocol, 4, SEED, TINY, n_nodes=20)
    return (
        r.sender,
        r.receiver,
        r.initial_path,
        r.failed_link,
        r.sent,
        r.delivered,
        (r.drops_no_route, r.drops_ttl, r.drops_link_down, r.drops_queue),
        (
            r.routing_convergence,
            r.destination_convergence,
            r.forwarding_convergence,
        ),
        r.messages,
        r.withdrawals,
    )


_PATH = (20, 10, 8, 1, 3, 21)

GOLDEN = [
    (
        _multiflow,
        "dbf",
        (
            [(1, 6), (1, 2)],
            [(25, 26, 901, 899), (27, 28, 901, 898), (29, 30, 901, 831)],
            69,
            0,
        ),
    ),
    (
        _multiflow,
        "rip",
        (
            [(1, 6), (1, 2)],
            [(25, 26, 901, 708), (27, 28, 901, 613), (29, 30, 901, 604)],
            772,
            0,
        ),
    ),
    (
        _transport,
        "rip",
        ((2, 1), 29.278522590079007, 32, 4, 3032, 13.502674647042431),
    ),
    (_repair, "rip", ((2, 1), 1301, 1089, 211, 0.0, True)),
    (_repair, "bgp3", ((2, 1), 1301, 1299, 1, 0.012871999999997996, True)),
    (_node_failure, "rip", (1, 901, 596, 303, 0, True)),
    (_node_failure, "bgp3", (1, 901, 899, 0, 0, True)),
    (
        _random_topology,
        "rip",
        (
            20,
            21,
            _PATH,
            (8, 10),
            901,
            709,
            (190, 0, 1, 0),
            (19.400087717832804, 9.482391419932902, 9.482391419932902),
            356,
            0,
        ),
    ),
    (
        _random_topology,
        "bgp3",
        (
            20,
            21,
            _PATH,
            (8, 10),
            901,
            899,
            (0, 0, 1, 0),
            (2.529152810947842, 0.0, 0.0),
            209,
            12,
        ),
    ),
]


@pytest.mark.parametrize(
    "measure,protocol,expected",
    GOLDEN,
    ids=[f"{m.__name__.lstrip('_')}-{p}" for m, p, _ in GOLDEN],
)
def test_extension_golden(measure, protocol, expected):
    assert measure(protocol) == expected
