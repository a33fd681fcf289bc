"""The scale story: a 10k-node BGP scenario the sharded runtime makes viable.

A full warm start on a 10k-node topology is the single-process
bottleneck; the sharded path restricts BGP's warm start to the flow's
destinations (``warm_dests``), partitions the graph with the min-cut
strategy, and runs the failure scenario across 4 worker simulators.  The
offline invariants must come back clean: packet conservation exact, and
the FIB-loop monitor explicitly skipped (BGP makes no loop-freedom
promise) rather than silently dropped.
"""

from __future__ import annotations

from repro.dist.runner import ShardScenarioSpec, run_sharded
from repro.experiments.config import ExperimentConfig
from repro.net.dynamics import SingleLinkFailureDriver
from repro.topology.generators import scale_free

N_NODES = 10_000


def failure_spec(n_nodes: int, shards: int) -> ShardScenarioSpec:
    """A bgp3 failure on ``scale_free(n_nodes, m=2, seed=3)``: the flow's
    path loses its second link, and the warm start covers only the flow's
    two destinations."""
    topo = scale_free(n_nodes, m=2, seed=3)
    assert topo.n_nodes == n_nodes

    config = ExperimentConfig.quick().with_(
        runs=1,
        post_fail_window=5.0,
        shards=shards,
        partition="mincut",
    )
    # Deterministic far-apart stub nodes: the two highest-id leaves hang off
    # different parts of the graph (late joiners attach to earlier nodes).
    sender, receiver = n_nodes - 1, n_nodes - 2
    pre_path = topo.shortest_path(sender, receiver)
    assert pre_path is not None and len(pre_path) >= 3
    failed = (
        min(pre_path[1], pre_path[2]),
        max(pre_path[1], pre_path[2]),
    )
    expected_final = topo.shortest_path(sender, receiver, exclude_link=failed)
    driver = SingleLinkFailureDriver(failed, config.fail_time)

    return ShardScenarioSpec(
        protocol="bgp3",
        degree=2,
        seed=3,
        config=config,
        topology=topo,
        sender=sender,
        receiver=receiver,
        pre_path=tuple(pre_path),
        expected_final=tuple(expected_final) if expected_final else None,
        events=tuple(driver.generate(config.end_time)),
        warm_dests=(sender, receiver),
    )


def test_10k_node_bgp_scenario_across_4_shards():
    result = run_sharded(failure_spec(N_NODES, shards=4), validate=True)

    assert result.sent > 0
    assert result.delivered > 0
    # Conservation holds exactly across the shard cut.
    assert result.violations == ()
    skips = result.monitor_skips or {}
    assert "no loop-freedom promise" in skips.get("fib-loop", "")
    assert result.routing_convergence is not None
