"""Property tests for drop and message tallies.

Hypothesis drives random streams of packet deaths and sent messages
through a live network and checks :func:`tally` against straight counts:

* the difference of the snapshots at a stretch's ends counts exactly the
  events inside it, each data-packet drop in its one cause bucket, and a
  control packet's death never;
* snapshots taken along the way add back up to the last one, the way a
  run's counts before and inside its window make up its whole.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.counters import Tally, tally
from repro.net.network import Network
from repro.net.packet import Packet
from repro.routing.spf import SpfProtocol
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.tracing import DropCause
from repro.topology import generators

_CAUSES = list(DropCause)

_drop = st.tuples(
    st.just("drop"),
    st.integers(min_value=0, max_value=3),  # node
    st.sampled_from(_CAUSES),
    st.sampled_from(["data", "control"]),
)
_message = st.tuples(
    st.just("message"),
    st.integers(min_value=0, max_value=3),  # sender
    st.integers(min_value=0, max_value=4096),  # size_bytes
    st.booleans(),  # is_withdrawal
)
_events = st.lists(st.one_of(_drop, _message), max_size=60)


def _network() -> Network:
    net = Network(Simulator(), generators.line(4))
    net.attach_protocols(lambda node: SpfProtocol(node, RngStreams(1)))
    return net


def _apply(net: Network, event) -> None:
    if event[0] == "drop":
        _, node, cause, kind = event
        net.node(node).drop(Packet(src=0, dst=3, kind=kind), cause)
    else:
        _, sender, size_bytes, is_withdrawal = event
        neighbor = 1 if sender == 0 else sender - 1
        net.node(sender).protocol._record_message(
            neighbor, 1, is_withdrawal=is_withdrawal, size_bytes=size_bytes
        )


def _oracle(events) -> Tally:
    drops = [e[2] for e in events if e[0] == "drop" and e[3] == "data"]
    messages = [e for e in events if e[0] == "message"]
    return Tally(
        drops.count(DropCause.NO_ROUTE),
        drops.count(DropCause.TTL_EXPIRED),
        drops.count(DropCause.LINK_DOWN),
        drops.count(DropCause.QUEUE_OVERFLOW),
        len(messages),
        sum(1 for e in messages if e[3]),
        sum(e[2] for e in messages),
    )


def _window(events, data) -> tuple[Tally, list]:
    """Apply ``events`` to a fresh network; tally the stretch after a drawn
    split, and return it with the events inside it."""
    split = data.draw(st.integers(min_value=0, max_value=len(events)))
    net = _network()
    for event in events[:split]:
        _apply(net, event)
    opened = tally(net)
    for event in events[split:]:
        _apply(net, event)
    return tally(net) - opened, events[split:]


class TestDropCounterProperties:
    @given(events=_events, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_by_cause_sums_to_total_and_matches_oracle(self, events, data):
        counts, inside = _window(events, data)
        oracle = _oracle(inside)
        assert counts[:4] == oracle[:4]
        assert sum(counts[:4]) == counts.drops == oracle.drops

    @given(events=_events, data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_non_drop_records_never_count(self, events, data):
        quiet = [e for e in events if e[0] == "message" or e[3] == "control"]
        counts, _ = _window(quiet, data)
        assert counts.drops == 0


class TestMessageCounterProperties:
    @given(events=_events, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_counts_match_straight_sums(self, events, data):
        counts, inside = _window(events, data)
        assert counts[4:] == _oracle(inside)[4:]


class TestTallyProperties:
    @given(events=_events, data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_stretches_add_up_to_the_whole(self, events, data):
        position = st.integers(min_value=0, max_value=len(events))
        cuts = sorted(data.draw(st.lists(position, max_size=4)))
        net = _network()
        snapshots = [tally(net)]
        done = 0
        for cut in cuts + [len(events)]:
            for event in events[done:cut]:
                _apply(net, event)
            done = cut
            snapshots.append(tally(net))
        stretches = [b - a for a, b in zip(snapshots, snapshots[1:])]
        assert sum(stretches, Tally()) == snapshots[-1] == _oracle(events)
