"""Drop and message tallies: snapshots of the counters a run always keeps.

The unit tests drive nodes and protocols by hand.  The equivalence tests
pin a whole run's counts against a :class:`FlightRecorder` of the same run:
drops and messages stamped at or after the first topology event are the
window's, and every message sent after warm start is the MANET triple's
routing load.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.experiments.churn import run_churn_scenario
from repro.experiments.config import ChurnConfig, ExperimentConfig
from repro.experiments.scenario import ScenarioRun, run_scenario
from repro.metrics.counters import Tally, tally
from repro.net.network import Network
from repro.net.packet import Packet
from repro.obs.flight import FlightRecorder
from repro.routing.spf import SpfProtocol
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.tracing import DropCause
from repro.topology import generators


def line_network() -> Network:
    net = Network(Simulator(), generators.line(3))
    net.attach_protocols(lambda node: SpfProtocol(node, RngStreams(1)))
    return net


def drop(net: Network, node: int, cause: DropCause, kind: str = "data") -> None:
    net.node(node).drop(Packet(src=0, dst=2, kind=kind), cause)


class TestDropCounter:
    """A run's drop counts: the nodes' per-cause counters, tallied."""

    def test_counts_by_cause(self):
        net = line_network()
        drop(net, 0, DropCause.NO_ROUTE)
        drop(net, 2, DropCause.NO_ROUTE)
        drop(net, 1, DropCause.TTL_EXPIRED)
        counts = tally(net)
        assert (counts.drops_no_route, counts.drops_ttl) == (2, 1)
        assert counts.drops == 3

    def test_window_filters_early_drops(self):
        net = line_network()
        drop(net, 1, DropCause.NO_ROUTE)
        opened = tally(net)
        drop(net, 1, DropCause.NO_ROUTE)
        assert (tally(net) - opened).drops_no_route == 1

    def test_non_drop_records_ignored(self):
        net = line_network()
        for node in (0, 1):
            net.node(node).set_next_hop(2, node + 1)
        net.node(0).originate(Packet(src=0, dst=2))
        net.sim.run()
        drop(net, 1, DropCause.LINK_DOWN, kind="control")
        assert net.node(2).delivered == 1
        assert tally(net) == Tally()

    def test_all_cause_properties(self):
        net = line_network()
        for cause in DropCause:
            drop(net, 1, cause)
        assert tally(net)[:4] == (1, 1, 1, 1)


class TestMessageCounter:
    """A run's message counts: the bus's counters, bumped per message sent."""

    def test_counts_messages_and_routes(self):
        net = line_network()
        protocol = net.node(0).protocol
        protocol._record_message(1, 25, size_bytes=100)
        protocol._record_message(1, 1, is_withdrawal=True, size_bytes=40)
        counts = tally(net)
        assert (counts.messages, counts.withdrawals, counts.message_bytes) == (2, 1, 140)
        assert counts.drops == 0
        assert protocol.routes_sent == 26

    def test_window(self):
        net = line_network()
        protocol = net.node(1).protocol
        protocol._record_message(0, 1, size_bytes=10)
        opened = tally(net)
        protocol._record_message(2, 1, size_bytes=30)
        assert tally(net) - opened == Tally(messages=1, message_bytes=30)


class TestTally:
    def test_arithmetic_is_field_wise(self):
        a = Tally(1, 2, 3, 4, 5, 6, 7)
        b = Tally(1, 1, 1, 1, 1, 1, 1)
        assert a - b == Tally(0, 1, 2, 3, 4, 5, 6)
        assert a + b == Tally(2, 3, 4, 5, 6, 7, 8)
        assert sum([a, b, b], Tally()) == Tally(3, 4, 5, 6, 7, 8, 9)


def window_counts(recorder: FlightRecorder, first_at: float) -> tuple:
    """The window's drops by cause, messages and withdrawals, from records."""
    drops = Counter(
        r.cause
        for r in recorder.records("packet")
        if r.kind == "drop" and r.time >= first_at
    )
    messages = [r for r in recorder.records("message") if r.time >= first_at]
    return (
        drops[DropCause.NO_ROUTE],
        drops[DropCause.TTL_EXPIRED],
        drops[DropCause.LINK_DOWN],
        drops[DropCause.QUEUE_OVERFLOW],
        len(messages),
        sum(m.is_withdrawal for m in messages),
    )


def result_counts(result) -> tuple:
    return (
        result.drops_no_route,
        result.drops_ttl,
        result.drops_link_down,
        result.drops_queue,
        result.messages,
        result.withdrawals,
    )


#: 400 pkt/s x 512 B offered to 1 Mb/s links: queues overflow before the
#: failure as well as after it.
CONGESTED = ExperimentConfig.quick().with_(
    rate_pps=400.0, post_fail_window=15.0, packet_bytes=512
)


class TestCountsMatchTheRecords:
    @pytest.mark.parametrize("cold_start", [False, True])
    def test_congested_dataplane(self, cold_start):
        recorder = FlightRecorder()
        config = CONGESTED.with_(cold_start=cold_start)
        run = ScenarioRun("dbf", 4, 1, config, recorder=recorder)
        before_run = len(recorder.records("message"))
        result = run.execute().to_result()
        first_at = run.clock.first_at
        drop_times = [r.time for r in recorder.records("packet") if r.kind == "drop"]
        # The window's edges are exercised: drops before it, drops at its
        # first instant (in flight on the failed link).
        assert min(drop_times) < first_at and first_at in drop_times
        assert (before_run > 0) == cold_start
        assert result_counts(result) == window_counts(recorder, first_at)
        after_warm_start = recorder.records("message")[before_run:]
        assert result.manet.control_packets == len(after_warm_start)
        assert result.manet.control_bytes == sum(m.size_bytes for m in after_warm_start)

    def test_local_shards_count_what_one_process_counts(self):
        # Each shard tallies just short of the window too: the link-down
        # drops at the failure instant land inside it in both modes.
        single = run_scenario("dbf", 4, 1, CONGESTED)
        sharded = run_scenario("dbf", 4, 1, CONGESTED.with_(shards=2))
        assert result_counts(sharded) == result_counts(single)
        assert sharded.manet == single.manet

    @pytest.mark.parametrize("protocol", ["olsr", "dual"])
    def test_churn(self, protocol):
        recorder = FlightRecorder()
        config = ExperimentConfig.quick().with_(
            post_fail_window=20.0,
            churn=ChurnConfig(model="gauss-markov", n_nodes=16, radio_range=400.0),
        )
        result = run_churn_scenario(protocol, 1, config, recorder=recorder)
        assert result.total_drops > 0 and result.messages > 0
        assert result_counts(result) == window_counts(recorder, result.events[0].time)
        # Warm start sends nothing, so every message is routing load.
        assert result.manet.control_packets == len(recorder.records("message"))
