"""Memory per router at 10^5 routers: one process, one BGP failure.

The failure of ``test_scale.py`` on a 100 000-node scale-free bgp3 network,
warm-started toward one flow's two destinations, reconverges in a single
process (``shards=1``).  The test reports wall time, peak RSS and KiB per
node, and bounds the last, since memory per router is what limits BGP
simulation at scale (docs/distributed.md, "Memory per router").

Tier-2: about 2 minutes and 2 GiB of RSS, so the tier-1 command deselects it.
Run it with ``PYTHONPATH=src python -m pytest -m tier2 -s``.
"""

from __future__ import annotations

import resource
import time
import warnings

import pytest

from repro.dist.runner import run_sharded

from .test_scale import failure_spec

N_NODES = 100_000

#: KiB of peak RSS per node the run may add over the imported interpreter:
#: 19.0–19.2 measured (Python 3.11; 95–117 s wall, 1 897–1 908 MiB peak),
#: plus 10 %.
KIB_PER_NODE_BOUND = 21.1


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@pytest.mark.tier2
def test_100k_node_bgp_failure_in_one_process(capsys):
    before = _peak_rss_mb()
    started = time.perf_counter()
    with warnings.catch_warnings():
        # A 1-shard partition is trivial; one process is the point here.
        warnings.simplefilter("ignore", UserWarning)
        result = run_sharded(failure_spec(N_NODES, shards=1), exchange="local")
    wall = time.perf_counter() - started
    peak = _peak_rss_mb()
    kib_per_node = (peak - before) * 1024.0 / N_NODES
    with capsys.disabled():
        print(
            f"\n{N_NODES} nodes, one process: wall {wall:.1f} s, "
            f"peak_rss_mb {peak:.0f}, {kib_per_node:.1f} KiB per node"
        )

    assert result.sent > 0
    assert result.delivered > 0
    assert result.routing_convergence is not None
    assert kib_per_node <= KIB_PER_NODE_BOUND
