"""Sharded distributed simulation.

Partitions a topology across shards — each running its own
:class:`~repro.sim.engine.Simulator` and protocol stack — synchronized by a
conservative time-window barrier whose lookahead is the minimum propagation
delay over cut links, with cross-shard packets and routing messages relayed
through proxy-link stubs.  A sharded run is byte-identical to the
single-process run on any topology small enough to do both; see
``docs/distributed.md`` for the sync protocol and the determinism argument.
"""

from .partition import Partition, partition_topology
from .runner import ShardScenarioSpec, ShardStallError, run_sharded

__all__ = [
    "Partition",
    "partition_topology",
    "ShardScenarioSpec",
    "ShardStallError",
    "run_sharded",
]
