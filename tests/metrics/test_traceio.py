"""Tests for trace export/import."""

from __future__ import annotations

import io
from itertools import chain

import pytest
from hypothesis import given, strategies as st

from repro.metrics.traceio import read_trace, write_trace
from repro.sim.tracing import (
    DropCause,
    LinkEventRecord,
    MessageRecord,
    PacketRecord,
    RouteChangeRecord,
)

SAMPLES = [
    PacketRecord(time=1.0, kind="drop", packet_id=3, node=2, flow_id=1, ttl=5,
                 cause=DropCause.TTL_EXPIRED),
    PacketRecord(time=1.5, kind="deliver", packet_id=4, node=9, flow_id=1, ttl=120),
    PacketRecord(time=1.6, kind="send", packet_id=5, node=0, flow_id=1, ttl=128,
                 dst=9),
    RouteChangeRecord(time=2.0, node=1, dest=9, old_next_hop=2, new_next_hop=None),
    RouteChangeRecord(time=2.5, node=1, dest=9, old_next_hop=None, new_next_hop=3,
                      cause=("message", 3)),
    RouteChangeRecord(time=2.6, node=4, dest=9, old_next_hop=1, new_next_hop=None,
                      cause=("spf_recompute", None)),
    LinkEventRecord(time=3.0, node_a=1, node_b=2, up=False),
    MessageRecord(time=4.0, sender=1, receiver=2, protocol="bgp", n_routes=1,
                  is_withdrawal=True),
]


class TestRoundTrip:
    def test_all_record_types_survive(self):
        buf = io.StringIO()
        assert write_trace(SAMPLES, buf) == len(SAMPLES)
        buf.seek(0)
        restored = list(read_trace(buf))
        assert restored == SAMPLES

    def test_jsonl_one_record_per_line(self):
        buf = io.StringIO()
        write_trace(SAMPLES, buf)
        lines = [l for l in buf.getvalue().splitlines() if l]
        assert len(lines) == len(SAMPLES)
        import json

        assert all(json.loads(l)["type"] for l in lines)

    def test_blank_lines_ignored(self):
        buf = io.StringIO('\n{"type": "link", "time": 1.0, "node_a": 1, "node_b": 2, "up": true}\n\n')
        records = list(read_trace(buf))
        assert len(records) == 1

    def test_unknown_type_rejected(self):
        buf = io.StringIO('{"type": "martian", "time": 1.0}\n')
        with pytest.raises(ValueError):
            list(read_trace(buf))

    def test_packet_dst_round_trips(self):
        buf = io.StringIO()
        write_trace(SAMPLES, buf)
        buf.seek(0)
        restored = list(read_trace(buf))
        sends = [r for r in restored if getattr(r, "kind", None) == "send"]
        assert sends[0].dst == 9
        assert restored[0].dst is None  # absent stays absent

    def test_route_cause_round_trips(self):
        buf = io.StringIO()
        write_trace(SAMPLES, buf)
        buf.seek(0)
        causes = [
            r.cause for r in read_trace(buf) if isinstance(r, RouteChangeRecord)
        ]
        assert causes == [None, ("message", 3), ("spf_recompute", None)]

    def test_legacy_lines_without_new_fields_still_load(self):
        buf = io.StringIO(
            '{"type": "packet", "time": 1.0, "kind": "send", "packet_id": 1,'
            ' "node": 0, "flow_id": 0, "ttl": 64, "cause": null}\n'
            '{"type": "route", "time": 2.0, "node": 1, "dest": 9,'
            ' "old_next_hop": null, "new_next_hop": 2}\n'
        )
        packet, change = list(read_trace(buf))
        assert packet.dst is None
        assert change.cause is None


class TestNonStrictRead:
    MIXED = (
        '{"type": "link", "time": 1.0, "node_a": 1, "node_b": 2, "up": true}\n'
        '{"type": "martian", "time": 2.0}\n'
        '{"type": "quic", "time": 3.0}\n'
        '{"type": "link", "time": 4.0, "node_a": 1, "node_b": 2, "up": false}\n'
    )

    def test_skips_unknown_kinds_with_one_warning_each(self):
        with pytest.warns(UserWarning) as caught:
            records = list(read_trace(io.StringIO(self.MIXED), strict=False))
        assert [r.time for r in records] == [1.0, 4.0]
        messages = [str(w.message) for w in caught]
        assert len(messages) == 2
        assert any("martian" in m for m in messages)
        assert any("quic" in m for m in messages)

    def test_on_skip_callback_counts_instead_of_warning(self):
        skipped = []
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning here would fail the test
            records = list(
                read_trace(
                    io.StringIO(self.MIXED), strict=False, on_skip=skipped.append
                )
            )
        assert len(records) == 2
        assert [d["type"] for d in skipped] == ["martian", "quic"]

    def test_strict_is_the_default(self):
        with pytest.raises(ValueError):
            list(read_trace(io.StringIO(self.MIXED)))


def _write_recording(streams: dict[str, list], path) -> int:
    """Write every recorded stream to ``path`` in time order."""
    records = sorted(chain.from_iterable(streams.values()), key=lambda r: r.time)
    with open(path, "w") as f:
        return write_trace(records, f)


class TestExportBus:
    """A run's bus keeps nothing; a recorder's streams go out through
    ``write_trace``."""

    def test_exports_retained_records_in_time_order(self, tmp_path, bus, recorder):
        for record in reversed(SAMPLES):
            bus.publish(record)
        path = tmp_path / "trace.jsonl"
        count = _write_recording(recorder.streams, path)
        assert count == len(SAMPLES)
        with open(path) as f:
            restored = list(read_trace(f))
        times = [r.time for r in restored]
        assert times == sorted(times)
        assert sorted(restored, key=repr) == sorted(SAMPLES, key=repr)

    def test_real_run_exports(self, tmp_path):
        from repro.net.dynamics import LinkScheduler
        from repro.topology import generators
        from ..conftest import build_network, recorded

        topo = generators.ring(4)
        sim, net, _ = build_network(topo, "dbf")
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        LinkScheduler(sim, net, detection_delay=0.05).fail_link(0, 1, at=5.0)
        sim.run(until=20.0)
        path = tmp_path / "run.jsonl"
        count = _write_recording(recorded(net), path)
        assert count > 0
        with open(path) as f:
            restored = list(read_trace(f))
        assert len(restored) == count
        assert set(restored) == set(chain.from_iterable(recorded(net).values()))
