"""Property tests: packet_autopsy vs a brute-force oracle."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.flight import packet_autopsies, packet_autopsy
from repro.sim.tracing import DropCause, PacketRecord, RouteChangeRecord


# --- random packet histories ------------------------------------------------
#
# One packet's records: a "send", some "forward"s, and optionally a terminal
# "deliver" or "drop".  The oracle below re-derives the autopsy from the raw
# per-packet history with straight-line code; packet_autopsy must agree no
# matter how histories from different packets are interleaved in the input.

_node = st.integers(min_value=0, max_value=6)


@st.composite
def _packet_history(draw, packet_id):
    n_mid = draw(st.integers(min_value=0, max_value=8))
    terminal = draw(st.sampled_from(["deliver", "drop", None]))
    kinds = ["send"] + ["forward"] * n_mid + ([terminal] if terminal else [])
    nodes = [draw(_node) for _ in kinds]
    cause = (
        draw(st.sampled_from(list(DropCause))) if terminal == "drop" else None
    )
    dst = draw(st.one_of(st.none(), _node))
    times = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=len(kinds),
            max_size=len(kinds),
            unique=True,
        ).map(sorted)
    )
    return [
        PacketRecord(
            time=t,
            kind=k,
            packet_id=packet_id,
            node=n,
            flow_id=packet_id % 3,
            ttl=64 - i,
            cause=cause if k == "drop" else None,
            dst=dst,
        )
        for i, (t, k, n) in enumerate(zip(times, kinds, nodes))
    ]


@st.composite
def _interleaved_histories(draw):
    n_packets = draw(st.integers(min_value=1, max_value=5))
    histories = {
        pid: draw(_packet_history(pid)) for pid in range(1, n_packets + 1)
    }
    merged = [r for history in histories.values() for r in history]
    shuffled = draw(st.permutations(merged))
    return histories, shuffled


def _oracle(history):
    """Brute-force autopsy of one packet's chronologically ordered records."""
    events = sorted(history, key=lambda r: r.time)
    outcome, drop_cause = "in_flight", None
    for r in events:
        if r.kind == "deliver":
            outcome, drop_cause = "delivered", None
        elif r.kind == "drop":
            outcome, drop_cause = "dropped", r.cause
    path = []
    for r in events:
        if not path or path[-1] != r.node:
            path.append(r.node)
    return {
        "outcome": outcome,
        "drop_cause": drop_cause,
        "path": tuple(path),
        "times": tuple(r.time for r in events),
    }


class TestAutopsyVsOracle:
    @settings(max_examples=60, deadline=None)
    @given(data=_interleaved_histories())
    def test_agrees_with_brute_force_on_any_interleaving(self, data):
        histories, shuffled = data
        autopsies = packet_autopsies(shuffled)
        assert set(autopsies) == set(histories)
        for pid, history in histories.items():
            expected = _oracle(history)
            a = autopsies[pid]
            assert a.outcome == expected["outcome"]
            assert a.drop_cause == expected["drop_cause"]
            assert a.path == expected["path"]
            assert tuple(h.time for h in a.hops) == expected["times"]
            # Loop invariants: a loop exists iff the path revisits a node,
            # and the reported cycle is a closed contiguous slice of it.
            if len(set(a.path)) == len(a.path):
                assert a.loop is None
            else:
                assert a.loop is not None
                assert a.loop[0] == a.loop[-1]
                joined = ",".join(map(str, a.path))
                assert ",".join(map(str, a.loop)) in joined
            # Single-packet autopsy sees exactly the same walk.
            assert packet_autopsy(shuffled, pid) == a

    @settings(max_examples=40, deadline=None)
    @given(
        data=_interleaved_histories(),
        changes=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                _node,
                _node,
                st.one_of(st.none(), _node),
            ),
            max_size=20,
        ),
    )
    def test_fib_reconstruction_matches_last_change_wins(self, data, changes):
        histories, shuffled = data
        routes = [
            RouteChangeRecord(
                time=t, node=n, dest=d, old_next_hop=None, new_next_hop=nh
            )
            for t, n, d, nh in changes
        ]
        autopsies = packet_autopsies(shuffled, route_changes=routes)
        for pid, history in histories.items():
            for record, hop in zip(
                sorted(history, key=lambda r: r.time), autopsies[pid].hops
            ):
                if record.dst is None or record.kind not in ("send", "forward"):
                    assert hop.fib_next_hop is None
                    continue
                applicable = [
                    r
                    for r in routes
                    if r.node == record.node
                    and r.dest == record.dst
                    and r.time <= record.time
                ]
                expected = applicable[-1].new_next_hop if applicable else None
                assert hop.fib_next_hop == expected
