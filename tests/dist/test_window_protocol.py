"""The barrier window protocol: one round trip per shard per window.

Each window the coordinator sends every shard one ``advance(barrier,
inbound)`` and gets back the relays it produced, a heartbeat and its next
event time.  These tests pin the round-trip count, show that the window
sequence equals the older peek -> run -> inject loop's (a test-local copy
drives the same hosts), and check that a worker dying in ``finalize`` is
reported at the last window, not at t=0.
"""

from __future__ import annotations

import math
import os

import pytest

from repro.dist import runner
from repro.dist.merge import diff_recordings, merge_results
from repro.dist.partition import partition_topology
from repro.dist.runner import (
    LocalExchange,
    ProcessExchange,
    ShardScenarioSpec,
    ShardStallError,
    run_sharded,
)
from repro.dist.worker import ShardHost
from repro.experiments.persistence import diff_runs
from repro.experiments.scenario import event_clock
from repro.net.packet import reset_packet_ids
from repro.obs.flight import FlightRecorder

from tests.golden.runs import GOLDEN_CONFIG

from .test_differential import _scale_free_spec


def test_one_round_trip_per_shard_per_window(monkeypatch):
    calls = []
    recv = ProcessExchange._recv

    def counting_recv(self, *args, **kwargs):
        calls.append(args)
        return recv(self, *args, **kwargs)

    monkeypatch.setattr(ProcessExchange, "_recv", counting_recv)
    shards = 2
    registries = {}
    run_sharded(
        ShardScenarioSpec.mesh("bgp3", 4, 7, GOLDEN_CONFIG.with_(shards=shards)),
        exchange="process",
        registries=registries,
    )
    windows = {
        shard: registry.counter("shard.windows").value
        for shard, registry in registries.items()
    }
    assert len(set(windows.values())) == 1, windows
    n_windows = windows[0]
    assert n_windows > 100
    # One start peek, one advance per window, one finalize.
    assert len(calls) == shards * (n_windows + 2)


def test_worker_dying_in_finalize_names_the_last_window(monkeypatch):
    def die(self, *args):
        os._exit(43)

    # Patched before the fork, so every worker inherits it.
    monkeypatch.setattr(ShardHost, "finalize", die)
    config = GOLDEN_CONFIG.with_(rows=4, cols=4, post_fail_window=8.0, shards=2)
    with pytest.raises(ShardStallError) as excinfo:
        run_sharded(
            ShardScenarioSpec.mesh("dbf", 4, 7, config),
            exchange="process",
            barrier_timeout=10.0,
        )
    assert "worker process died" in str(excinfo.value)
    assert excinfo.value.window_time == config.end_time


# --------------------------------------------------------------------------
# the window sequence is the peek -> run -> inject loop's


class _RecordingExchange(LocalExchange):
    """LocalExchange that keeps its plans and every window it ran."""

    instance = None

    def __init__(self, plans):
        super().__init__(plans)
        self.plans = plans
        self.windows = []
        _RecordingExchange.instance = self

    def advance(self, barrier, inbound):
        replies = super().advance(barrier, inbound)
        produced = [relay for batch, _, _ in replies for relay in batch]
        self.windows.append((barrier, sorted(produced, key=_relay_key)))
        return replies


def _relay_key(relay):
    return (relay.arrive_at, relay.link, relay.src, relay.seq)


def _peek_run_inject(spec, plans):
    """The coordinator loop of three commands per window, over fresh hosts.

    A host's ``run_until`` was ``advance`` with nothing inbound (its
    trailing peek after a run pops nothing), and its ``inject`` is
    ``_inject``.  Returns the windows run, the merged result and its
    recording.
    """
    config = spec.config
    end_at = config.end_time
    scheduled = [e for e in spec.events if e.time < end_at]
    clock = event_clock(scheduled, config.detection_delay, config.fail_time)
    partition = partition_topology(
        spec.topology, config.shards, strategy=config.partition
    )
    reset_packet_ids()
    hosts = LocalExchange(plans).hosts
    windows = []

    def run_until(barrier):
        relays = []
        for host in hosts:
            relays.extend(host.advance(barrier, [])[0])
        windows.append((barrier, sorted(relays, key=_relay_key)))
        return relays

    while True:
        peeks = [t for t in (host.peek_time() for host in hosts) if t is not None]
        e_min = min(peeks, default=None)
        if e_min is None or e_min > end_at:
            barrier = end_at
        else:
            horizon = e_min + partition.lookahead
            barrier = (
                end_at if horizon > end_at else math.nextafter(horizon, -math.inf)
            )
        relays = run_until(barrier)
        while relays:
            relays.sort(key=_relay_key)
            per_shard = {}
            for relay in relays:
                per_shard.setdefault(partition.shard_of(relay.dst), []).append(relay)
            for shard in sorted(per_shard):
                hosts[shard]._inject(per_shard[shard])
            if any(r.arrive_at <= barrier for r in relays):
                relays = run_until(barrier)
            else:
                break
        if barrier >= end_at:
            break
    outputs = [host.finalize([]) for host in hosts]
    recorder = FlightRecorder()
    result = merge_results(
        spec=spec,
        partition=partition,
        outputs=outputs,
        scheduled=scheduled,
        clock=clock,
        recorder=recorder,
    )
    return windows, result, recorder


@pytest.mark.parametrize(
    "make_spec",
    [
        lambda: ShardScenarioSpec.mesh("bgp3", 4, 7, GOLDEN_CONFIG.with_(shards=2)),
        lambda: _scale_free_spec(2),
    ],
    ids=["mesh-bgp3-s7", "scale-free"],
)
def test_window_sequence_matches_peek_run_inject(monkeypatch, make_spec):
    monkeypatch.setattr(runner, "LocalExchange", _RecordingExchange)
    spec = make_spec()
    recorder = FlightRecorder()
    result = run_sharded(spec, recorder=recorder)
    recorded = _RecordingExchange.instance
    windows, reference, reference_recorder = _peek_run_inject(spec, recorded.plans)

    assert [b for b, _ in recorded.windows] == [b for b, _ in windows]
    assert recorded.windows == windows
    assert sum(len(relays) for _, relays in windows) > 0
    problems = diff_runs(reference, result) + diff_recordings(
        reference_recorder, recorder
    )
    assert not problems, "\n".join(problems)
